"""The public surface: every module's ``__all__`` resolves, and the package
root exports exactly the names its callers import from it."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import thermodiag

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(thermodiag.__path__, "thermodiag."))


@pytest.mark.parametrize("name", ["thermodiag", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def root_imports(source: str) -> set:
    """Names a source imports with ``from thermodiag import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "thermodiag"
            and node.level == 0
            for alias in node.names}


def test_root_exports_exactly_what_callers_import():
    # the callers are the demos, the benchmark and the README's code blocks;
    # the tests import from the submodules
    sources = [p.read_text(encoding="utf-8")
               for folder in ("demos", "bench") for p in sorted((ROOT / folder).glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    used = set().union(*map(root_imports, sources))
    assert sorted(thermodiag.__all__) == sorted(used)
