"""The package's exported names, and the benchmark's own checks and the quick demos
run as the user runs them."""

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
