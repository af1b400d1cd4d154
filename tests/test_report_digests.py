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
    "solve/run_metadata.json": "fd48f99ca6e7144f9fccc1583157ddf77034018ff427dad2a6b3611eb0f7068a",
    "solve/solve.csv": "80c9a8279fa6de617fd75f6f908fa5b79940354edb50834ad73f83df16132f45",
    "datagen/dataset.csv": "fbe646e8c7e1201a2178690e52a42f18c04a43940d889c98d76b2d648239535a",
    "datagen/run_metadata.json": "656967c0dbb658687f4a186fff79ad7a686afd81fc0194c9fc0b036b3cd49716",
    "train/loss_trace.csv": "5e4bbd0d4d9418a235822f79706df498385964ede081f8a958bb9e0d81fa7c70",
    "train/model.json": "d477dcc2bb1988105afe94d82ab07f3da985c1edd642a5e6f4a94fbaba027820",
    "train/run_metadata.json": "17a01490bfecc40d5e03fff58c9084e3364cf5b0843c05f0a85de899ce58aea7",
    "eval/eval.csv": "774e940267b0b140e1bbe9fc29fa5a56c035a9e2e7248907c0567d25263a8caa",
    "eval/run_metadata.json": "da5730d1c114412749a710b5a4c4d4e4d9481e1604f46d81f77fec809cf29f47",
    "eval_no_sim/eval.csv": "1a89d93c4c19d74a292591d8b6db465b9d13898c71e2fe85c0bc19d9940cbc9b",
    "eval_no_sim/run_metadata.json": "5415b2ea597d0975424001dce8e3e51563d0c3b920911a94fd252d5dc49b0d0b",
    "validate/run_metadata.json": "1b5c56318fc7008cc511b6f6e403c02e90fb6a92df38b47fbb0c90c3a7320005",
    "validate/validate.csv": "f427e28196d5fe0dad55099d7ae4b3a3b2b2303342241ee3811debe9775f7867",
    "bench_sim/bench.csv": "61ceb24a73f867a7eb79f2fad09126ffc3f38071a313b20b3fe762a1c1f8c3b7",
    "bench_sim/run_metadata.json": "6bca837dc91eeaf030a1d9b6c77d3a3a5e3eff73f757a7ff26094d0b5bbbac20",
    "eval_defaults/eval.csv": "1ef8dbed551e0692e7f8bc58630f7b042ac233ab762a9459b12e8b4598b43bf8",
    "eval_defaults/run_metadata.json": "6a54e5ce411f19ee210f2f28169d556896f87f2ce3105e2603965e1024b62cfa",
    "eval_generalize/eval.csv": "7daa077cc7924b9e5a722da72f29d5423ae443907971fd9f4f6f63126eb1aad0",
    "eval_generalize/run_metadata.json": "7bfaa58a301424a02ca54e2812d905343e180408702339688103e8e1360f1428",
    "eval_k0/eval.csv": "42869b41a80b942addd24bf2cb406a32a79dac677a5a63ab4b68d7802c7d63df",
    "eval_k0/run_metadata.json": "b991cec7a63e5a33f919a8e7bb8b7e465028b2403ddae5a771017c8a9f6a02b0",
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
