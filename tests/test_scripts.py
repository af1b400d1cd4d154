"""The package's exported names and imports, and the benchmark's own checks and the
quick demos run as the user runs them."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import icl_csma

ROOT = Path(__file__).resolve().parents[1]

# every rebinding the benchmark's traced passes make must name a live attribute
RESOLVE_TRACE_TARGETS = """
import sys
sys.path.insert(0, "benchmarks")
import run
targets = run.trace_targets(run.import_program())
missing = [name for owner, name, *_ in targets if not hasattr(owner, name)]
assert not missing, missing
print(len(targets))
"""


def _run(args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_bench_records_name_parent_and_host():
    # ROADMAP reads the performance trajectory from these files
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        assert isinstance(record.get("parent_commit"), str) and record["parent_commit"], path.name
        assert record.get("host"), path.name


def test_benchmark_trace_targets_resolve():
    proc = _run(["-c", RESOLVE_TRACE_TARGETS])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("module", ["icl_csma", *(f"icl_csma.{m.name}" for m in
                                     pkgutil.iter_modules(icl_csma.__path__))])
def test_exported_names_resolve(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


def _unread_imports(path):
    """Names a module's top-level imports bind that it neither reads nor lists in ``__all__``.

    As flake8's F401 reads them: ``__future__`` imports are exempt, and so is
    every name of a statement whose first line carries ``# noqa: F401``.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name.split(".")[0], node.lineno)
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             and "# noqa: F401" not in lines[node.lineno - 1]
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{path.name}:{line}: {name}" for name, line in bound if name not in read]


# __init__.py is left out: the package re-exports what it imports
@pytest.mark.parametrize("path", [path for path in sorted((ROOT / "src" / "icl_csma").glob("*.py"))
                                  if path.name != "__init__.py"], ids=lambda path: path.name)
def test_no_unread_imports(path):
    # the project has no linter dependency; a deletion can leave an import behind
    assert not _unread_imports(path)


def test_benchmark_selftest():
    proc = _run(["benchmarks/selftest.py"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.rstrip().endswith("OK")


@pytest.mark.parametrize("demo", ["01_saturation_model.py", "02_simulator_vs_model.py",
                                  "03_dataset_and_prompts.py", "04_train_icl_optimizer.py",
                                  "05_generalization_benchmark.py"])
def test_demo_runs(demo):
    proc = _run([f"demos/{demo}"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
