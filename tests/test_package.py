"""The package's public surface: every exported name resolves."""

import transversals


def test_all_names_resolve():
    assert len(set(transversals.__all__)) == len(transversals.__all__)
    missing = [name for name in transversals.__all__
               if not hasattr(transversals, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from transversals import *", namespace)
    assert set(transversals.__all__) <= namespace.keys()
