import importlib
import pkgutil

import pytest

import saddle_sa

MODULES = sorted(f"saddle_sa.{info.name}" for info in pkgutil.iter_modules(saddle_sa.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist_and_star_import_succeeds(module):
    # A name left in __all__ after its definition is deleted fails here, not
    # in a user's import.
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__"), f"{module} has no __all__"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exec(f"from {module} import *", {})
