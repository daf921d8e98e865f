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
        "cosine": {"parameters": "fe8f65b2b7d9c7a8be548445894d513e22d3dfd49f04f2aebf0fc222a7e96e9e",
                   "losses": "a707885903bb31c65c96a47d583753abcdeed987085a49c2b5fff32098366567"},
        "gaussian_sup": {"parameters": "2b80d9b0a864890c0a719db149874af395ab6845993478c36c32c47057e76e41",
                         "losses": "43dc41d3256b9e622e5f20ba8b82b55030b4dd153d28fcf8200b7fa547418831"},
        "cosine_blocks": {"parameters": "0e1110e78462cd8dd46da7868d40d551bd0408ff66bed845c7cbdeffe3a0be9c",
                          "losses": "0e2813a4c13d75f31c1f8ab803dea0546352be0639f6185b38485c2d9dcabb30"},
        "gaussian_wide_blocks": {"parameters": "f0744acfbeaa385b02bee50d994333033dc8a29bbc134c00d041701fa4963869",
                                 "losses": "1385161b6670c81a1b65418cb335e3c105feb27fce9cb8d6569f3aaf640a9514"},
    },
    "Haswell": {
        "cosine": {"parameters": "0190127bff584d86feaecd72a660208732ddfccd8d7d4c4ff89037787fd98934",
                   "losses": "a2b36292e877716c83f077758f3e91555b9a251548354779f1b13873a16181ee"},
        "gaussian_sup": {"parameters": "932e71ec3c9445d50c41580881b66408a8a94de6ed7ab2ae52d463b0f209064e",
                         "losses": "52f77f100350e1687e959a68b67b5ed454ce294e20d20dc78caf394e9d8179b5"},
        "cosine_blocks": {"parameters": "8c08f831636090532bbf0bf7f0578e8fc32fc955af964b95c927eb6b8b8c6a0e",
                          "losses": "b9b45dd4c7219786c9e5e120b28755da8f527d135fe709c3123f475111da5709"},
        "gaussian_wide_blocks": {"parameters": "3ccff0df4f884a18088d99c7ca99b024287cf6975de8e90e57cae845191dadae",
                                 "losses": "cce63b19f274587921d2ec700c4d8f096803350eb2dfbf5efef832b6fc76d7ca"},
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
