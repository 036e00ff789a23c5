import os
from pathlib import Path

import pytest

import cmreduce
from cmreduce import catalog_load


@pytest.fixture(scope="session")
def catalog():
    return catalog_load()


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports the cmreduce under test."""
    src = str(Path(cmreduce.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
