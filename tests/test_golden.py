"""Golden bit-identity: two small fixed training runs, pinned by sha256.

Each digest covers the library run's loss trace and final parameters
(raw float bytes) and the model file and loss-log bytes of one
``pkt transfer`` CLI run on the same data.  A refactor of the training
path must leave both digests unchanged; a change that moves numbers on
purpose updates them and says so in CHANGES.md.

The digests pin last bits, so they hold for one floating-point stack:
they were recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import numpy as np
import pytest

from pkt import TrainConfig, cosine_kernel, gaussian_kernel, init_student, train, write_features, write_labels
from pkt.cli import main

CASES = {
    "cosine": dict(spec=cosine_kernel(), sup_weight=0.0, flags=[]),
    "gaussian_sup": dict(spec=gaussian_kernel(6.0), sup_weight=0.5,
                         flags=["--kernel", "gaussian", "--sigma-t", "6.0", "--sigma-s", "6.0",
                                "--sup-weight", "0.5"]),
}

GOLDEN = {
    "cosine": "82e3d21106d91171d68c77371a566f18353e47e25817b0c9b2fad7fd8672883a",
    "gaussian_sup": "1416686675c63b8a016dfd2ae0b2c63cfe11fc1aac918f64c882fd020aad1239",
}


def golden_digest(case, tmp_path):
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(70, 7))
    teacher = np.tanh(raw @ rng.normal(size=(7, 9)))
    labels = rng.integers(0, 3, size=70)
    c = CASES[case]
    # 70 rows at batch 16 leave a 6-row tail batch in every epoch
    cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-2, seed=4, teacher_spec=c["spec"],
                      student_spec=c["spec"], sup_weight=c["sup_weight"])
    model, trace = train(init_student([7, 10, 6, 3], seed=2), raw, teacher,
                         labels if c["sup_weight"] > 0 else None, cfg)

    write_features(tmp_path / "raw.txt", raw)
    write_features(tmp_path / "teacher.txt", teacher)
    write_labels(tmp_path / "labels.txt", labels)
    rc = main(["transfer", "--input", str(tmp_path / "raw.txt"), "--teacher", str(tmp_path / "teacher.txt"),
               "--labels", str(tmp_path / "labels.txt"), "--arch", "10,6,3", "--epochs", "3",
               "--batch-size", "16", "--lr", "1e-2", "--seed", "4", "--out", str(tmp_path / "model.txt"),
               "--loss-log", str(tmp_path / "loss.txt"), *c["flags"]])
    assert rc == 0

    h = hashlib.sha256()
    h.update(np.array([(e.epoch, e.batch, e.loss) for e in trace]).tobytes())
    for p in model.parameters():
        h.update(np.ascontiguousarray(p).tobytes())
    h.update((tmp_path / "model.txt").read_bytes())
    h.update((tmp_path / "loss.txt").read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_training_digest(case, tmp_path):
    assert golden_digest(case, tmp_path) == GOLDEN[case]
