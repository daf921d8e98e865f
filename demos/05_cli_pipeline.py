"""
The command-line pipeline
=========================

Everything the library does is also reachable from the `pkt` command:
train a student (`transfer`), embed features with a saved model
(`embed`), score retrieval (`eval`), measure label interaction (`qmi`),
and self-test the gradient (`gradcheck`).  This script writes a small
dataset to disk, then drives each subcommand in process, printing the
equivalent shell command first.  Every file involved is decimal text.
"""

import tempfile
from pathlib import Path

import numpy as np

from pkt import write_features, write_labels
from pkt.cli import main

rng = np.random.default_rng(9)


def run(argv):
    print("\n$ pkt " + " ".join(argv))
    rc = main(argv)
    print("(exit code", rc, ")")


# Every file lives in a temporary directory that is removed at the end.
with tempfile.TemporaryDirectory(prefix="pkt-demo-") as tmp:
    work = Path(tmp)

    # A labeled 2-class problem and a fixed random teacher embedding.
    labels = rng.integers(0, 2, size=60)
    raw = np.hstack([labels[:, None] * 2.0 + 0.3 * rng.normal(size=(60, 2)),
                     rng.normal(size=(60, 3))])
    teacher = np.tanh(raw[:, :2] @ rng.normal(size=(2, 8)))

    write_features(work / "raw.txt", raw)
    write_features(work / "teacher.txt", teacher)
    write_labels(work / "labels.txt", labels)

    # 1. Train a 5 -> 16 -> 4 student against the teacher's conditionals,
    #    logging per-batch losses.  Rerunning with the same seed reproduces
    #    the model file byte for byte.
    run(["transfer",
         "--input", str(work / "raw.txt"),
         "--teacher", str(work / "teacher.txt"),
         "--arch", "16,4",
         "--epochs", "4", "--batch-size", "20", "--lr", "1e-3", "--seed", "7",
         "--out", str(work / "student.model"),
         "--loss-log", str(work / "losses.txt")])
    print("first and last logged losses:")
    lines = (work / "losses.txt").read_text().splitlines()
    print(" ", lines[0])
    print(" ", lines[-1])

    # 2. Embed the raw features with the trained model.
    run(["embed",
         "--model", str(work / "student.model"),
         "--input", str(work / "raw.txt"),
         "--out", str(work / "embedded.txt")])

    # 3. Score retrieval with the embedded features serving as both the
    #    database and the query set.
    run(["eval",
         "--db", str(work / "embedded.txt"),
         "--db-labels", str(work / "labels.txt"),
         "--queries", str(work / "embedded.txt"),
         "--query-labels", str(work / "labels.txt"),
         "--top-k", "5,10"])

    # 4. Information potentials of the embedded, labeled representation.
    run(["qmi",
         "--features", str(work / "embedded.txt"),
         "--labels", str(work / "labels.txt")])

    # 5. Gradient self-test: a battery of random instances over both kernel
    #    families, comparing the analytic gradient to finite differences.
    run(["gradcheck", "--seed", "0"])

    print("\nwork files under", work)
    for path in sorted(work.iterdir()):
        print(" ", path.name)
