"""The public surface: every exported name exists, and the package namespace
re-exports only what some module declares public."""

import importlib
import pkgutil

import pytest

import shimorin_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(shimorin_lab.__path__))


def _all_of(name: str) -> list:
    return list(getattr(importlib.import_module(f"shimorin_lab.{name}"), "__all__", []))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"shimorin_lab.{name}")
    missing = [n for n in _all_of(name) if not hasattr(module, n)]
    assert not missing, f"shimorin_lab.{name}.__all__ names {missing}"


def test_package_exports_are_declared_public():
    declared = {n for name in MODULES for n in _all_of(name)}
    exported = {n for n, obj in vars(shimorin_lab).items()
                if not n.startswith("_") and callable(obj)}
    assert exported, "the package exports no callable"
    assert sorted(exported - declared) == []


def test_every_module_declares_its_surface():
    # modules with a public API list it; private helpers and the CLI need not
    public = [n for n in MODULES if not n.startswith("_") and n not in ("cli", "constants")]
    assert all(_all_of(n) for n in public), public
