"""The package re-exports the library modules' public names, each declared once."""

import importlib

import oswr

MODULES = [
    importlib.import_module(f"oswr.{name}") for name in ("frequency", "optimize", "fem", "schwarz")
]


def test_package_api_mirrors_the_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert oswr.__all__ == names
    # A star import would shadow a name that two modules declare, silently.
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(oswr, name) is getattr(module, name), name
