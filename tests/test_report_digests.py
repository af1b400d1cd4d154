"""Every file the commands write, pinned by sha256.

Criterion 10 compares two runs of the same code; this test compares a run
with the bytes recorded when the digests were last pinned, so any change in
a report shows up as a named file.  Each command runs in-process through
``cli.main`` from a fixed relative ``--out``: ``out_dir`` is part of the
config, and so of ``config_hash`` and ``run_metadata.json``.

A change that moves report bytes on purpose re-pins the digests
(``python tests/test_report_digests.py`` prints the current ones) and says
which files moved and why.  The float arithmetic and random streams follow
the Python and numpy versions below; on others a mismatch may be a version
effect, and the failure message names both.
"""

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

from icl_csma import cli

PINNED_ON = {"python": "3.11.7", "numpy": "2.4.6"}

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
    "solve/run_metadata.json": "5acc964521edb631bb9cfb2d14b43f4e42a554dee5b3607f48eb6db5704ac0a4",
    "solve/solve.csv": "dd25152ae79227ba1c29a3f304d8f4fe902d6dea21d1621a748eebfbc491ad54",
    "datagen/dataset.csv": "fbe646e8c7e1201a2178690e52a42f18c04a43940d889c98d76b2d648239535a",
    "datagen/run_metadata.json": "9bad97e01e1fc122f45ad2ab9bb97458f6aca3c8d40c068a1d986a9c02b514f0",
    "train/loss_trace.csv": "060b32d1c9e7fa51af698b40489bdedd056152f4c319b3cf274e5dca8977131d",
    "train/model.json": "d477dcc2bb1988105afe94d82ab07f3da985c1edd642a5e6f4a94fbaba027820",
    "train/run_metadata.json": "007284e3fe1e55f24953051aa28f3478e78d81e89bc9015753b7b85f515d8477",
    "eval/eval.csv": "97ff1e8088a4b4351bda722792dc2e7e298eb55e299e8c497b5a45e324598f4e",
    "eval/run_metadata.json": "5e4a1862ba8031cb0f7c23cb6164befa2efcd1fff551181497503d6832976785",
    "eval_no_sim/eval.csv": "01ea94b548c114fc95085f1dd527188fb5079df880d90417ec5f4347eefa649f",
    "eval_no_sim/run_metadata.json": "904c8ddf2bc27bfee222587ccd3f557e16ea5af6637ffa4d42d8ce63f648f129",
    "validate/run_metadata.json": "e0e25e079b9cf6a7c9cad2b0b44af9da9a6ed16d234a7a3933b0afd46600a2c5",
    "validate/validate.csv": "08494fa54e9af951893eaa8781e775567320115addf9a4fbec4c3d6f44a049f2",
    "bench_sim/bench.csv": "613ef00b66387fd4cf16fa4a65a109d156722769bbde84811bb477c473659aa8",
    "bench_sim/run_metadata.json": "46cec28d7fee7a6fffd50ea8db67fa16786de88cf9834692565b72329218d4c8",
    "eval_defaults/eval.csv": "96585510048f7d44dbe9e1327d057af725fbe3931406887da4c9381ce65825e3",
    "eval_defaults/run_metadata.json": "2cbe57159aee39f56bc203cbe12d58e10947a0ec42baceb00ec7947ba0934bf2",
    "eval_generalize/eval.csv": "1d82ccee674b057391f6234ed7132642da8aa9de5ebc8ef105a4f7b4987a7589",
    "eval_generalize/run_metadata.json": "26cae9bd51c43e770a6d70f6c322bac800b64e8b173e09e122fca0636638a888",
    "eval_k0/eval.csv": "2116804f656c372c5d080da94f2cb8ba22eed68f52f3f9ee5a70ea9fb233ef09",
    "eval_k0/run_metadata.json": "5950da16886c1582c6f28b1de5d87d154029d91a0b2b3b82376abb425bed3902",
}


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
        f"report bytes moved: {', '.join(moved)} (pinned on Python {PINNED_ON['python']} "
        f"and numpy {PINNED_ON['numpy']}; this is Python {platform.python_version()} "
        f"and numpy {np.__version__})")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in report_digests(scratch).items():
            print(f'    "{name}": "{digest}",')
