"""Golden bit-identity: two small fixed training runs, pinned by sha256.

Each training run has two digests.  The parameters digest covers the
library run's final parameters (raw float bytes) and the model file of
one ``pkt transfer`` CLI run on the same data; the losses digest covers
the library run's loss trace and the CLI run's loss log.  A refactor of
the training path must leave every digest unchanged; a change that
moves numbers on purpose updates the ones it moves and says so in
CHANGES.md.  A change to the loss value alone moves only a losses
digest.

The digests pin last bits, so they hold for one floating-point stack:
they were recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.  The
AVX-512 (SkylakeX) and AVX2 (Haswell) kernels of OpenBLAS accumulate
products differently, so each has its own set, keyed by the name of the
kernel the running OpenBLAS picked.  On a kernel without a pinned set
the digest tests are skipped, naming that kernel; the dense QMI values
below are checked everywhere.

Run as a script, this file prints the running kernel's ``GOLDEN`` and
``ANALYSIS_GOLDEN`` sets as dict literals, so a re-pin of both kernels
is two commands, each from the root of the repository::

    PYTHONPATH=src python tests/test_golden.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import pprint
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pkt import (TrainConfig, cosine_kernel, gaussian_kernel, init_student, save_model, train, write_features,
                 write_labels)
from pkt.cli import main
from pkt.kernels import AUGMENTED_MAX_DIM, TILE

# 70 rows at batch 16 leave a 6-row tail batch in every epoch
ONE_BLOCK = dict(rows=70, teacher_dim=9, batch_size=16, epochs=3)
# a batch of 2 * TILE + 3 rows spans three column blocks, the last of 3
# columns, and each epoch drops a one-row tail
BLOCKS = dict(rows=2 * (2 * TILE + 3) + 1, teacher_dim=9, batch_size=2 * TILE + 3, epochs=2)

CASES = {
    "cosine": dict(ONE_BLOCK, teacher=cosine_kernel(), student=cosine_kernel(), sup_weight=0.0),
    "gaussian_sup": dict(ONE_BLOCK, teacher=gaussian_kernel(6.0), student=gaussian_kernel(6.0), sup_weight=0.5),
    "cosine_blocks": dict(BLOCKS, teacher=cosine_kernel(), student=cosine_kernel(), sup_weight=0.0),
    # the teacher is wider than AUGMENTED_MAX_DIM, so its logits come from the Gram product
    "gaussian_wide_blocks": dict(BLOCKS, teacher_dim=AUGMENTED_MAX_DIM + 2, teacher=gaussian_kernel(64.0),
                                 student=gaussian_kernel(6.0), sup_weight=0.5),
}


def openblas_core() -> str:
    """Name of the kernel that numpy's bundled OpenBLAS runs, e.g. "SkylakeX"; "" if it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return ""
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


CORE = openblas_core()

GOLDEN = {
    "SkylakeX": {
        "cosine": {"parameters": "7e1f7585dfb6f244a85131ba8c62ed0098896d716b70a9bc0dcedef3b67b91b4",
                   "losses": "abbf501b184f954f2c4da6909cb25ab142303210593606f3cd8c0e6a18612d12"},
        "gaussian_sup": {"parameters": "a9dd63db72efb26897ee671e390a249163ede81c97679e96ba0ebd4d9cb0dbb7",
                         "losses": "1c06037760e61d0d65b706059d8d5950c33384bf5e7548b58479bd6da4a6e256"},
        "cosine_blocks": {"parameters": "7d70f0336a7ad44dfea87e170938b073d5e5ebf762f3a3d098efa1a6df6c8156",
                          "losses": "f09507a42d2fccb56bb6b0be2a4b404ae9adb5b5c4334b3dcc5ccdd389f45ca0"},
        "gaussian_wide_blocks": {"parameters": "2af747ab7fe69aa5f507e3331f480829a24d5074be7577e6fa7501a99be68dc5",
                                 "losses": "847a7f3e41799cca259effabcbed5fa770cedad1ff637d9ccf7a9fbf62f101f2"},
    },
    "Haswell": {
        "cosine": {"parameters": "27b1c75cd9ff84bedb7ceaca97219ac971a35b6590bf675ed3b809bf1d0a6eb3",
                   "losses": "5e6fe41e85f3c7263cd2e2954cd9c0936d66491dd921976f6ad8a45c5725cf3b"},
        "gaussian_sup": {"parameters": "01970b3b140f6208f8c514d899d6fe4af914942bbb56dd21fe81a9e419111a14",
                         "losses": "ec2d5eb932776739bc4455c1eb6d9f78f1eab48d31f4621d18edec38ea8abb6b"},
        "cosine_blocks": {"parameters": "00392e48e806cd8a1bd8e741fa0dc733b08b077fced4907fe8e5bfa10558e7b0",
                          "losses": "b3012a4ccdc77880c57d07f7fa581bbc81f285b851ed642a946ebece8ada07fe"},
        "gaussian_wide_blocks": {"parameters": "0f940e45ca39e2c620ecaf4791f12210c058890327a3753d250e91a451abedee",
                                 "losses": "aad4248a9968ce70bbeb5ad7021a12e7b4b45edfd14505e86c3cc5e099c68c40"},
    },
}


def pinned(digests):
    if CORE not in digests:
        pytest.skip(f"no golden digests are pinned for the OpenBLAS kernel {CORE or '(unknown)'}")
    return digests[CORE]


def golden_digest(case, tmp_path):
    c = CASES[case]
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(c["rows"], 7))
    teacher = np.tanh(raw @ rng.normal(size=(7, c["teacher_dim"])))
    labels = rng.integers(0, 3, size=c["rows"])
    cfg = TrainConfig(epochs=c["epochs"], batch_size=c["batch_size"], lr=1e-2, seed=4, teacher_spec=c["teacher"],
                      student_spec=c["student"], sup_weight=c["sup_weight"])
    model, trace = train(init_student([7, 10, 6, 3], seed=2), raw, teacher,
                         labels if c["sup_weight"] > 0 else None, cfg)

    write_features(tmp_path / "raw.txt", raw)
    write_features(tmp_path / "teacher.txt", teacher)
    write_labels(tmp_path / "labels.txt", labels)
    flags = ["--sup-weight", repr(c["sup_weight"])]
    if c["student"].family == "gaussian":
        flags += ["--kernel", "gaussian", "--sigma-t", repr(c["teacher"].width), "--sigma-s", repr(c["student"].width)]
    rc = main(["transfer", "--input", str(tmp_path / "raw.txt"), "--teacher", str(tmp_path / "teacher.txt"),
               "--labels", str(tmp_path / "labels.txt"), "--arch", "10,6,3", "--epochs", str(c["epochs"]),
               "--batch-size", str(c["batch_size"]), "--lr", "1e-2", "--seed", "4",
               "--out", str(tmp_path / "model.txt"), "--loss-log", str(tmp_path / "loss.txt"), *flags])
    assert rc == 0

    parameters = hashlib.sha256()
    for p in model.parameters():
        parameters.update(np.ascontiguousarray(p).tobytes())
    parameters.update((tmp_path / "model.txt").read_bytes())
    losses = hashlib.sha256(np.array([(e.epoch, e.batch, e.loss) for e in trace]).tobytes())
    losses.update((tmp_path / "loss.txt").read_bytes())
    return {"parameters": parameters.hexdigest(), "losses": losses.hexdigest()}


@pytest.mark.parametrize("case", list(CASES))
def test_golden_training_digest(case, tmp_path):
    assert golden_digest(case, tmp_path) == pinned(GOLDEN)[case]


# The analysis commands on a 300-row database and 90 queries: the rows
# span two row ranges of the kernel-sum tiles (qmi.BLOCK = 256), and the
# queries two blocks of ranking (retrieval.QUERY_BLOCK = 64).
ANALYSIS_GOLDEN = {
    "SkylakeX": {
        "embed": "ae0be527de7f2594fe8aebe6304dc80b5c11878c79083fbdd759c9995a27466f",
        "eval": "da20630335b33dad5aa40238e01b2950a9657216b344f9181b00036671b73336",
        "qmi_cosine": "fe0eea016a93d911ec606655372b601a4eb79fadf205d7743f0f29def48067c3",
        "qmi_gaussian": "a01844b6190c951376270920240662539bfdd3df7896934941b104a049c385e2",
    },
    "Haswell": {
        "embed": "ae0be527de7f2594fe8aebe6304dc80b5c11878c79083fbdd759c9995a27466f",
        "eval": "da20630335b33dad5aa40238e01b2950a9657216b344f9181b00036671b73336",
        "qmi_cosine": "34722d84d4ed37662ce2a3f3664b2f41845ad4f111f99a55cc771e01bed09b56",
        "qmi_gaussian": "ebb2a3bcbc00d1fb9a70e68475c2c39a9db5e999df84355c9fde1be1127e6a04",
    },
}

# `pkt qmi` values printed by the dense N x N implementation on the same
# data; the tiled sums may move last digits, by at most 1e-15.
DENSE_QMI = {
    "qmi_cosine": {"v_in": 0.19210312809000549, "v_all": 0.17888798816388171,
                   "v_btw": 0.17901128803060742, "qmi": 0.012968540192672351},
    "qmi_gaussian": {"v_in": 0.16072114382011954, "v_all": 0.14335783723647516,
                     "v_btw": 0.14399262311293032, "qmi": 0.016093734830734063},
}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def analysis_outputs(tmp_path):
    rng = np.random.default_rng(33)
    centers = rng.normal(size=(4, 6))
    labels = rng.integers(0, 4, size=300)
    q_labels = rng.integers(0, 5, size=90)  # label 4 never occurs in the database
    write_features(tmp_path / "raw.txt", centers[labels] + rng.normal(size=(300, 6)))
    write_features(tmp_path / "queries.txt", centers[q_labels % 4] + rng.normal(size=(90, 6)))
    write_labels(tmp_path / "labels.txt", labels)
    write_labels(tmp_path / "qlabels.txt", q_labels)
    save_model(init_student([6, 12, 5], seed=8), tmp_path / "model.txt")

    for name in ("raw", "queries"):
        run_cli(["embed", "--model", str(tmp_path / "model.txt"), "--input", str(tmp_path / f"{name}.txt"),
                 "--out", str(tmp_path / f"emb_{name}.txt")])
    emb = {"raw": tmp_path / "emb_raw.txt", "queries": tmp_path / "emb_queries.txt"}
    out = {"embed": emb["raw"].read_bytes() + emb["queries"].read_bytes()}
    out["eval"] = run_cli(["eval", "--db", str(emb["raw"]), "--db-labels", str(tmp_path / "labels.txt"),
                           "--queries", str(emb["queries"]), "--query-labels", str(tmp_path / "qlabels.txt"),
                           "--top-k", "1,10,300"]).encode()
    qmi = ["qmi", "--features", str(emb["raw"]), "--labels", str(tmp_path / "labels.txt")]
    out["qmi_cosine"] = run_cli(qmi).encode()
    out["qmi_gaussian"] = run_cli(qmi + ["--kernel", "gaussian", "--sigma", "4.0"]).encode()
    return out


def analysis_digests(tmp_path):
    return {k: hashlib.sha256(v).hexdigest() for k, v in analysis_outputs(tmp_path).items()}


def test_golden_analysis_digests(tmp_path):
    assert analysis_digests(tmp_path) == pinned(ANALYSIS_GOLDEN)


@pytest.mark.parametrize("case", list(DENSE_QMI))
def test_qmi_output_matches_dense_values(case, tmp_path):
    printed = dict(line.split() for line in analysis_outputs(tmp_path)[case].decode().splitlines())
    assert set(printed) == set(DENSE_QMI[case])
    for key, value in DENSE_QMI[case].items():
        assert abs(float(printed[key]) - value) <= 1e-15


# Prints the kernel OpenBLAS picked, then runs this file's other tests.
UNDER_HASWELL = """
import sys
import pytest
import test_golden
print(test_golden.CORE, flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "-k", "not haswell", test_golden.__file__]))
"""


def test_golden_digests_hold_under_the_haswell_kernel():
    # OPENBLAS_CORETYPE forces the AVX2 kernel for the child process only
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", UNDER_HASWELL], cwd=here, env=env, capture_output=True,
                          text=True, timeout=300)
    core, _, report = proc.stdout.partition("\n")
    if core != "Haswell":
        pytest.skip(f"OpenBLAS cannot run its Haswell kernel on this CPU (it picked {core or '(unknown)'})")
    assert proc.returncode == 0, report + proc.stderr
    ran = len(CASES) + 1 + len(DENSE_QMI)  # the training digests, the analysis digests and the dense QMI values
    assert re.search(rf"\b{ran} passed", report) and "skipped" not in report, report


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {name: Path(tmp, name) for name in [*CASES, "analysis"]}
        for d in dirs.values():
            d.mkdir()
        training = {case: golden_digest(case, dirs[case]) for case in CASES}
        analysis = analysis_digests(dirs["analysis"])
    for name, digests in (("GOLDEN", training), ("ANALYSIS_GOLDEN", analysis)):
        print(f"{name}[{CORE!r}] = {pprint.pformat(digests, width=120, sort_dicts=False)}")
