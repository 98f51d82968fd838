"""The package's public names: every one that __all__ lists is importable."""

import aliquot


def test_every_exported_name_resolves():
    assert len(set(aliquot.__all__)) == len(aliquot.__all__)
    missing = [name for name in aliquot.__all__ if not hasattr(aliquot, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from aliquot import *", namespace)
    assert set(aliquot.__all__) <= set(namespace)

