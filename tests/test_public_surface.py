"""The names `ptl` exports: each is there, once, and `import *` works."""

import ptl


def test_every_exported_name_is_an_attribute():
    missing = [name for name in ptl.__all__ if not hasattr(ptl, name)]
    assert missing == []


def test_exports_are_listed_once():
    assert len(ptl.__all__) == len(set(ptl.__all__))


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from ptl import *", namespace)
    assert set(ptl.__all__) <= namespace.keys()
