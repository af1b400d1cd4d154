"""Every file the commands write, pinned by sha256.

Criterion 10 compares two runs of the same code; this test compares a run
with the bytes recorded when the digests were last pinned, so any change in
a report shows up as a named file.  Each command runs in-process through
``cli.main``; ``--out`` is not part of the config, so the bytes do not
depend on where the files go.

A change that moves report bytes on purpose re-pins the digests
(``python tests/test_report_digests.py`` prints the current ones) and says
which files moved and why.  The float arithmetic and random streams follow
the Python and numpy versions below, and training's matrix products the
OpenBLAS kernel that numpy's bundled library picks for the CPU; on others a
mismatch may be a version or kernel effect, and the failure message names
each.
"""

import ctypes
import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

from icl_csma import cli

PINNED_ON = {"python": "3.11.7", "numpy": "2.4.6", "blas_core": "SkylakeX"}

MODEL_SEED7 = Path(__file__).resolve().parent.parent / "benchmarks" / "model-seed7.json"

SMALL = {"train_densities": [2, 3], "test_densities": [20, 40], "k_max": 2,
         "max_rounds": 60, "reps_per_query": 2, "sim_horizon_slots": 20_000,
         "sim_seeds": 2, "validate_densities": [1, 2], "b_pct_sweep": [0, 20, 40],
         "n_est": 5}

# the config files the runs read: SMALL, the benchmark's generalize sweep (every
# 8th density of 2..500 plus 500) and a one-stage ladder whose cap exceeds int64
CONFIGS = {
    "small.json": SMALL,
    "generalize.json": {"test_densities": sorted(set(range(2, 501, 8)) | {500})},
    "k0.json": {"k_max": 0, "cap": 10 ** 30},
}

# (output directory, argv before --out); the small eval runs read the model
# the train run wrote
RUNS = [
    ("solve", ["solve", "--config", "small.json"]),
    ("datagen", ["datagen", "--config", "small.json"]),
    ("train", ["train", "--config", "small.json"]),
    ("eval", ["eval", "--config", "small.json", "--model", "train/model.json"]),
    ("eval_no_sim", ["eval", "--no-sim", "--config", "small.json",
                     "--model", "train/model.json"]),
    ("validate", ["validate", "--config", "small.json"]),
    ("bench_sim", ["bench", "--sim", "--config", "small.json"]),
    ("eval_defaults", ["eval", "--no-sim", "--model", str(MODEL_SEED7)]),
    ("eval_generalize", ["eval", "--no-sim", "--config", "generalize.json",
                         "--model", str(MODEL_SEED7)]),
    ("eval_k0", ["eval", "--no-sim", "--config", "k0.json", "--model", str(MODEL_SEED7)]),
]

DIGESTS = {
    "solve/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "solve/solve.csv": "a205dec5d52c407ca2ad98929df008cd519055e345c20c0f54a5e2a6785b4bb1",
    "datagen/dataset.csv": "9e96f645f8cf7e435bdb58cd1b262b22c7023d871721a729006b8ab433c344f2",
    "datagen/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "train/loss_trace.csv": "a0b8712b71e8105e595e95619b0af9b031b80b1a041531ca10ef82fa06a0dcfa",
    "train/model.json": "c3cdc4af801011f06e60c977e7b482c2d727c8c23a63674e0bffbd95fc05cec4",
    "train/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "eval/eval.csv": "6d696ba53ebb9a453639cae64732474d46192b66ca3f418f6528890cc54f4118",
    "eval/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "eval_no_sim/eval.csv": "d48df90f249e499577ef1abc4d83735d3e66103fbb38fda016aa8cf214901fa8",
    "eval_no_sim/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "validate/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "validate/validate.csv": "97b2708f5b041f9d5d4a6cf315896c986fd77a3348c4c2210cbfe8b2a67b9b47",
    "bench_sim/bench.csv": "f942264dce180589a4645421254b8abcd44c7abf439f52afcd26bce38087d49d",
    "bench_sim/run_metadata.json": "027f00ef49bf9f98d4661310f9028849a02fd57bc25ac0ee987fd26e75270a82",
    "eval_defaults/eval.csv": "b47daf12afd8495ca07856450c4faf0477659c8d2acb5c47298adb1da6a8da88",
    "eval_defaults/run_metadata.json": "2bf4f5c7b2176e84b17726e765488d12bfbe1ec8b2acf01dc00b4aafc06baad5",
    "eval_generalize/eval.csv": "f86a95035c072296ea8d82d4c1ba26f117f4ff7e18e112d58cebe8198d0bf68a",
    "eval_generalize/run_metadata.json": "30176d3d2cff1190037a805af4bb7479f3713ddf277225afd8488b3a8c8306b4",
    "eval_k0/eval.csv": "362ea12c6235baedc617b7e8b126aedffa0daa925ff721c95d73e0462f51ee14",
    "eval_k0/run_metadata.json": "c4fa547e0ceae71b90cdeb54bb4b769ea8c76a6effc5091a8192301188c076e8",
}


def blas_core():
    """The kernel (core name) of numpy's bundled OpenBLAS on this CPU, or "unknown"."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def report_digests(work):
    """Run every command under ``work``; sha256 of each file, keyed out_dir/name."""
    work = Path(work)
    for name, config in CONFIGS.items():
        (work / name).write_text(json.dumps(config), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for out, argv in RUNS:
            code = cli.main(argv + ["--out", out])
            assert code == 0, f"{' '.join(argv)} exited with {code}"
    finally:
        os.chdir(cwd)
    return {f"{out}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for out, _ in RUNS for path in sorted((work / out).iterdir())}


def test_every_report_keeps_its_bytes(tmp_path):
    got = report_digests(tmp_path)
    moved = sorted(name for name in DIGESTS.keys() | got.keys()
                   if DIGESTS.get(name) != got.get(name))
    assert not moved, (
        f"report bytes moved: {', '.join(moved)} (pinned on Python {PINNED_ON['python']}, "
        f"numpy {PINNED_ON['numpy']} and BLAS core {PINNED_ON['blas_core']}; this is "
        f"Python {platform.python_version()}, numpy {np.__version__} "
        f"and BLAS core {blas_core()})")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in report_digests(scratch).items():
            print(f'    "{name}": "{digest}",')
