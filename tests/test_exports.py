"""The package's public names: every name in pdqw.__all__ exists, and the
list stays sorted, so an export left behind by a removal fails here."""

import pdqw


def test_every_exported_name_resolves():
    assert [name for name in pdqw.__all__ if not hasattr(pdqw, name)] == []


def test_all_is_sorted_without_repeats():
    assert pdqw.__all__ == sorted(set(pdqw.__all__))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pdqw import *", namespace)
    assert set(pdqw.__all__) <= namespace.keys()
