"""The package's public surface."""

import fptycho


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from fptycho import *", namespace)   # a stale name raises here
    assert set(fptycho.__all__) <= namespace.keys()
    assert len(set(fptycho.__all__)) == len(fptycho.__all__)
