"""Export lists: every ``__all__`` name of every advwave module exists and is defined there.

Tools that wrap a module's public functions look each ``__all__`` name up with
``getattr``, so a stale entry breaks them even when no other test notices.
"""
import importlib
import pkgutil

import pytest

import advwave

MODULES = [info.name for info in pkgutil.iter_modules(advwave.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_are_defined_in_their_module(name):
    module = importlib.import_module(f"advwave.{name}")
    exported = getattr(module, "__all__", ())
    for attr in exported:
        assert hasattr(module, attr), f"advwave.{name}.__all__ lists missing {attr!r}"
        assert getattr(module, attr).__module__ == module.__name__, \
            f"advwave.{name}.{attr} is defined elsewhere"
