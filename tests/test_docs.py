"""The README's library example runs, and every exported name exists."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pathgap

README = Path(__file__).resolve().parents[1] / "README.md"

# every module but __main__, which runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(pathgap.__path__) if m.name != "__main__"
)


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert -3.05 <= namespace["fit"].exponent <= -2.95


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"pathgap.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
