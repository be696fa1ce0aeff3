"""The package's public namespace is exactly what ``__all__`` lists."""

import inspect

import bellsquare


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(bellsquare.__all__) == len(set(bellsquare.__all__))
    for name in bellsquare.__all__:
        assert hasattr(bellsquare, name), name


def test_star_import():
    namespace = {}
    exec("from bellsquare import *", namespace)
    assert set(bellsquare.__all__) <= set(namespace)


def test_every_public_function_and_class_is_listed():
    public = {
        name
        for name, obj in vars(bellsquare).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert public <= set(bellsquare.__all__), sorted(public - set(bellsquare.__all__))
