"""The package's export list matches what it binds."""

import inspect

import sympspec


def test_all_lists_exactly_the_public_names():
    bound = {
        name for name, value in vars(sympspec).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(sympspec.__all__) == len(set(sympspec.__all__))
    assert set(sympspec.__all__) == bound | {"__version__"}
    for name in sympspec.__all__:
        assert getattr(sympspec, name) is not None
