"""The README's library example runs, every exported name exists, the
package exports exactly its modules' public names, the program reads each
of them, ``pathgap.__main__`` runs the CLI only when run as
``python -m pathgap``, and the console script's target writes its golden."""
import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pathgap

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathgap.__path__))


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


def test_package_exports_the_public_names_of_its_modules():
    exported = {
        n for n, v in vars(pathgap).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    listed = set()
    for name in ("operators", "eigensolver", "bounds", "scaling"):
        listed.update(importlib.import_module(f"pathgap.{name}").__all__)
    assert exported == listed


# a test oracle: perfbench/test_perfbench.py imports it from the package, so
# it can leave the package only in a change to the benchmark
READ_ONLY_BY_TESTS = {"free_spectrum"}


def test_the_program_reads_every_exported_name_and_class_attribute():
    # every name or attribute read (not assigned, not defined) in src/pathgap;
    # an attribute counts as read when any object's attribute of that name is
    reads = set()
    for path in Path(pathgap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    wanted = set()
    for name in ("operators", "eigensolver", "bounds", "scaling"):
        for export in importlib.import_module(f"pathgap.{name}").__all__:
            wanted.add(export)
            value = getattr(pathgap, export)
            if isinstance(value, type):
                attributes = set(vars(value))
                if dataclasses.is_dataclass(value):
                    attributes |= {f.name for f in dataclasses.fields(value)}
                wanted.update(a for a in attributes if not a.startswith("_"))
    assert wanted - reads == READ_ONLY_BY_TESTS


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(pathgap.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_importing_main_does_not_run_the_cli():
    proc = _python("-c", "import pathgap.__main__")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_python_m_pathgap_help_exits_0():
    proc = _python("-m", "pathgap", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")


def test_the_console_script_target_writes_the_k1_golden(capsys):
    # the installed ``pathgap`` calls this target; CI runs that script only
    # where a wheel can be built, so its target is checked here
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    main = pkgutil.resolve_name(scripts["pathgap"])
    assert main(["spectrum", "--k", "1", "--potential", "0:5"]) == 0
    golden = ROOT / "tests" / "data" / "golden" / "spectrum-k1.txt"
    assert capsys.readouterr().out == golden.read_text()
