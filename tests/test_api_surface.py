"""Every module's star import succeeds, so no ``__all__`` lists a missing name."""

import pkgutil

import pytest

import smtkit


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(smtkit.__path__)))
def test_star_import(name):
    exec(f"from smtkit.{name} import *", {})
