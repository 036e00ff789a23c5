"""The package's public surface: every name in __all__ exists, and once."""

from collections import Counter

import cmreduce


def test_all_names_resolve_once():
    names = cmreduce.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(cmreduce, n)] == []
    namespace = {}
    exec("from cmreduce import *", namespace)
    assert set(names) <= set(namespace)
