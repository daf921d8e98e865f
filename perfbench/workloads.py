"""The benchmark's workloads: inputs made from a seed, the timed operations, and their checks.

An operation is one ``train`` call, one library analysis call, or one
CLI command.  Each workload is a closed loop of one caller: a pass runs
its operations one after another, and the next pass starts when the
previous one has finished.  The first successful output of every
operation is checked against independent references (``reference.py``)
with the tolerances stated beside each check; later passes must
reproduce that output byte for byte.  No byte digest is pinned across
versions, so a change that moves last bits still passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import pkt
import pkt.cli
import reference

EPOCHS = 2  # the training check compares the last epoch's mean loss with the first's
TOP_K = [10, 100]
MAP_TOL = 1e-6  # absolute, on mAP and top-k in [0, 1]
QMI_RTOL = 1e-9  # relative to v_all, which bounds every potential of the set
EQ_TOL = 1e-9  # max kernel deviation allowed between an embedding and a scaled copy
EMBED_RTOL = 1e-9


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    rows: int  # input rows the operation consumes
    span: str | None = None  # span the runner opens around it when tracing


def _latent_classes(rng, n: int, n_classes: int, latent_dim: int, centers=None):
    """Labels and class-structured latent codes: unit-noise blobs around 2-sigma centers."""
    if centers is None:
        centers = 2.0 * rng.normal(size=(n_classes, latent_dim))
    labels = rng.integers(0, n_classes, size=n)
    return labels, centers[labels] + rng.normal(size=(n, latent_dim)), centers


def _views(rng, latent, raw_dim: int, teacher_dim: int, maps=None):
    """Raw input (noisy linear view) and teacher features (tanh view) of the same latent codes."""
    latent_dim = latent.shape[1]
    if maps is None:
        maps = (rng.normal(size=(latent_dim, raw_dim)) / math.sqrt(latent_dim),
                rng.normal(size=(latent_dim, teacher_dim)) / math.sqrt(latent_dim))
    raw = latent @ maps[0] + 0.5 * rng.normal(size=(latent.shape[0], raw_dim))
    teacher = latent @ maps[1]
    return raw, np.tanh(teacher, out=teacher), maps


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _train_problems(model, trace, n: int, batch_size: int, epochs: int) -> list[str]:
    problems = []
    expected = epochs * reference.batch_count(n, batch_size)
    if len(trace) != expected:
        problems.append(f"trace has {len(trace)} batches, expected {expected}")
    losses = np.array([e.loss for e in trace])
    epoch_of = np.array([e.epoch for e in trace])
    if not _finite(losses, *model.parameters()):
        problems.append("non-finite loss or parameter")
    elif epochs > 1 and not losses[epoch_of == epochs - 1].mean() < losses[epoch_of == 0].mean():
        problems.append("last-epoch mean loss is not below the first epoch's")
    return problems


class Transfer:
    """``train`` on in-memory arrays, ``EPOCHS`` epochs per call from the same initial student."""

    def __init__(self, name: str, why: str, family: str, sizes: dict):
        self.name, self.why, self.family, self.sizes = name, why, family, sizes

    def setup(self, shape: dict, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        labels, latent, _ = _latent_classes(rng, shape["n"], shape["classes"], shape["latent"])
        raw, teacher, _ = _views(rng, latent, shape["arch"][0], shape["teacher"])
        model = pkt.student.init_student(shape["arch"], seed=seed)
        return {"raw": raw, "teacher": teacher, "labels": labels, "model": model, "seed": seed}

    def _spec(self, width):
        return pkt.kernels.gaussian_kernel(width) if self.family == "gaussian" else pkt.kernels.cosine_kernel()

    def ops(self, shape: dict, inp: dict) -> list[Op]:
        init = inp["model"]
        model = pkt.student.StudentModel(init.layer_dims, [w.copy() for w in init.weights],
                                         [b.copy() for b in init.biases])
        cfg = pkt.trainer.TrainConfig(
            epochs=EPOCHS, batch_size=shape["batch"], lr=shape["lr"], seed=inp["seed"],
            teacher_spec=self._spec(shape.get("width_t")), student_spec=self._spec(shape.get("width_s")),
            sup_weight=shape["sup_weight"])
        labels = inp["labels"] if shape["sup_weight"] > 0 else None
        return [Op("train", lambda: pkt.trainer.train(model, inp["raw"], inp["teacher"], labels, cfg),
                   rows=EPOCHS * shape["n"])]

    def check(self, shape: dict, inp: dict, op: Op, result) -> list[str]:
        model, trace = result
        return _train_problems(model, trace, shape["n"], shape["batch"], EPOCHS)

    def fingerprint(self, inp: dict, op: Op, result) -> str:
        model, trace = result
        return _digest(np.array([(e.epoch, e.batch, e.loss) for e in trace]), *model.parameters())


class CorpusAnalysis:
    """Library retrieval evaluation and QMI analysis of a labeled corpus; no training."""

    name = "corpus_analysis"

    def __init__(self, why: str, sizes: dict):
        self.why, self.sizes = why, sizes

    def setup(self, shape: dict, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(shape["classes"], shape["dim"]))
        db_labels = rng.integers(0, shape["classes"], size=shape["n"])
        q_labels = rng.integers(0, shape["classes"], size=shape["queries"])
        db = 0.6 * centers[db_labels] + rng.normal(size=(shape["n"], shape["dim"]))
        queries = 0.6 * centers[q_labels] + rng.normal(size=(shape["queries"], shape["dim"]))
        return {"db": db, "db_labels": db_labels, "queries": queries, "q_labels": q_labels}

    def ops(self, shape: dict, inp: dict) -> list[Op]:
        db, labels, n = inp["db"], inp["db_labels"], shape["n"]
        cosine, gaussian = pkt.kernels.cosine_kernel(), pkt.kernels.gaussian_kernel(shape["width"])
        return [
            Op("evaluate", lambda: pkt.retrieval.evaluate(
                pkt.retrieval.RetrievalIndex(db, labels), inp["queries"], inp["q_labels"], TOP_K),
               rows=shape["queries"]),
            Op("qmi_cosine", lambda: pkt.qmi.information_potentials(db, labels, cosine), rows=n),
            Op("qmi_gaussian", lambda: pkt.qmi.information_potentials(db, labels, gaussian), rows=n),
            Op("equality_scaled", lambda: pkt.qmi.potential_equality_check(
                db, 3.0 * db, cosine, cosine, EQ_TOL), rows=n),
        ]

    def check(self, shape: dict, inp: dict, op: Op, result) -> list[str]:
        if op.name == "evaluate":
            ref_map, ref_topk, ref_skipped = reference.retrieval(
                inp["db"], inp["db_labels"], inp["queries"], inp["q_labels"], TOP_K)
            problems = _retrieval_problems(result.map, result.top_k, ref_map, ref_topk)
            if result.n_skipped != ref_skipped:
                problems.append(f"skipped {result.n_skipped} queries, reference skips {ref_skipped}")
            return problems
        if op.name == "equality_scaled":
            if not (result.within_tol and result.max_deviation <= EQ_TOL):
                return [f"scaled copy deviates by {result.max_deviation:.3g} > {EQ_TOL}"]
            return []
        family, width = ("cosine", None) if op.name == "qmi_cosine" else ("gaussian", shape["width"])
        ref = reference.potentials(inp["db"], inp["db_labels"], family, width)
        return _qmi_problems((result.v_in, result.v_all, result.v_btw, result.qmi), ref)

    def fingerprint(self, inp: dict, op: Op, result) -> str:
        if op.name == "evaluate":
            return _digest(np.array([result.map, *result.top_k.values(), *result.per_query_ap]))
        if op.name == "equality_scaled":
            return _digest(np.array([result.max_deviation, result.within_tol]))
        return _digest(np.array([result.v_in, result.v_all, result.v_btw, result.qmi]))


def _retrieval_problems(got_map, got_topk, ref_map, ref_topk) -> list[str]:
    problems = []
    if not abs(got_map - ref_map) <= MAP_TOL:
        problems.append(f"mAP {got_map!r} vs reference {ref_map!r}")
    for k, ref in ref_topk.items():
        if not abs(got_topk[k] - ref) <= MAP_TOL:
            problems.append(f"top-{k} {got_topk[k]!r} vs reference {ref!r}")
    return problems


def _qmi_problems(got, ref) -> list[str]:
    """``got``/``ref`` are ``(v_in, v_all, v_btw, qmi)``; qmi must also equal its own combination."""
    scale = ref[1]
    problems = [f"{name} {g!r} vs reference {r!r}"
                for name, g, r in zip(("v_in", "v_all", "v_btw", "qmi"), got, ref)
                if not abs(g - r) <= QMI_RTOL * scale]
    v_in, v_all, v_btw, qmi = got
    if not abs(qmi - (v_in + v_all - 2.0 * v_btw)) <= 1e-12 * scale:
        problems.append("qmi != v_in + v_all - 2 v_btw")
    return problems


class CliPipeline:
    """``pkt.cli.main`` in process over decimal-text files: transfer, embed x2, eval, qmi."""

    name = "cli_pipeline"
    OUTPUTS = {"transfer": ("model", "losses"), "embed_db": ("emb_db",), "embed_q": ("emb_q",)}

    def __init__(self, why: str, sizes: dict):
        self.why, self.sizes = why, sizes

    def setup(self, shape: dict, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        labels, latent, centers = _latent_classes(rng, shape["n"], shape["classes"], shape["latent"])
        q_labels, q_latent, _ = _latent_classes(rng, shape["queries"], shape["classes"], shape["latent"], centers)
        raw, teacher, maps = _views(rng, latent, shape["raw"], shape["teacher"])
        q_raw, _, _ = _views(rng, q_latent, shape["raw"], shape["teacher"], maps)
        files = {name: workdir / f"{name}.txt" for name in
                 ("raw", "teacher", "labels", "queries", "query_labels", "emb_db", "emb_q", "losses")}
        files["model"] = workdir / "student.model"
        pkt.featio.write_features(files["raw"], raw)
        pkt.featio.write_features(files["teacher"], teacher)
        pkt.featio.write_features(files["queries"], q_raw)
        pkt.featio.write_labels(files["labels"], labels)
        pkt.featio.write_labels(files["query_labels"], q_labels)
        return {"files": files, "raw": raw, "q_raw": q_raw, "labels": labels, "q_labels": q_labels,
                "seed": seed}

    def ops(self, shape: dict, inp: dict) -> list[Op]:
        for outputs in self.OUTPUTS.values():  # every pass must write its own outputs
            for key in outputs:
                inp["files"][key].unlink(missing_ok=True)
        f = {k: str(v) for k, v in inp["files"].items()}
        n, nq = shape["n"], shape["queries"]
        commands = [
            ("transfer", n, ["transfer", "--input", f["raw"], "--teacher", f["teacher"],
                             "--arch", ",".join(map(str, shape["arch"])), "--epochs", "1",
                             "--batch-size", str(shape["batch"]), "--lr", "1e-3", "--seed", str(inp["seed"]),
                             "--out", f["model"], "--loss-log", f["losses"]]),
            ("embed_db", n, ["embed", "--model", f["model"], "--input", f["raw"], "--out", f["emb_db"]]),
            ("embed_q", nq, ["embed", "--model", f["model"], "--input", f["queries"], "--out", f["emb_q"]]),
            ("eval", nq, ["eval", "--db", f["emb_db"], "--db-labels", f["labels"], "--queries", f["emb_q"],
                          "--query-labels", f["query_labels"], "--top-k", ",".join(map(str, TOP_K))]),
            ("qmi", n, ["qmi", "--features", f["emb_db"], "--labels", f["labels"]]),
        ]
        return [Op(name, lambda argv=argv: _run_cli(argv), rows=rows, span=f"cli.{argv[0]}")
                for name, rows, argv in commands]

    def check(self, shape: dict, inp: dict, op: Op, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        files = inp["files"]
        if op.name == "transfer":
            log = np.loadtxt(files["losses"], ndmin=2)
            expected = reference.batch_count(shape["n"], shape["batch"])
            layers = reference.parse_model(files["model"].read_text())
            problems = [] if log.shape == (expected, 3) else [f"loss log has shape {log.shape}, expected {expected} lines"]
            if not _finite(log, *(a for layer in layers for a in layer)):
                problems.append("non-finite loss or parameter")
            return problems
        if op.name.startswith("embed"):
            source, target = ("raw", "emb_db") if op.name == "embed_db" else ("q_raw", "emb_q")
            got = np.loadtxt(files[target], skiprows=1, ndmin=2)
            ref = reference.mlp_forward(reference.parse_model(files["model"].read_text()), inp[source])
            if got.shape != ref.shape or not np.allclose(got, ref, rtol=EMBED_RTOL, atol=EMBED_RTOL):
                return [f"embedding differs from the model's forward pass ({got.shape} vs {ref.shape})"]
            return []
        printed = {key: float(value) for key, value in (line.split() for line in out.splitlines())}
        emb_db = np.loadtxt(files["emb_db"], skiprows=1, ndmin=2)
        if op.name == "eval":
            emb_q = np.loadtxt(files["emb_q"], skiprows=1, ndmin=2)
            ref_map, ref_topk, _ = reference.retrieval(emb_db, inp["labels"], emb_q, inp["q_labels"], TOP_K)
            want = {"mAP": ref_map, **{f"t-{k}": ref_topk[k] for k in TOP_K}}
            slack = 0.5e-4 + 100.0 * MAP_TOL  # stdout holds percentages rounded to 4 decimals
            return [f"{key} {printed[key]} vs reference {100.0 * ref!r}"
                    for key, ref in want.items() if not abs(printed[key] - 100.0 * ref) <= slack]
        ref = reference.potentials(emb_db, inp["labels"], "cosine")
        return _qmi_problems(tuple(printed[k] for k in ("v_in", "v_all", "v_btw", "qmi")), ref)

    def fingerprint(self, inp: dict, op: Op, result) -> str:
        code, out = result
        paths = [inp["files"][k] for k in self.OUTPUTS.get(op.name, ())]
        files = [p.read_bytes() if p.exists() else b"missing" for p in paths]
        return _digest(str(code).encode(), out.encode(), *files)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkt.cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in [
    Transfer(
        "transfer_cosine",
        "ROADMAP baseline shapes: dense student matmuls, 2048-d teacher normalisation and Adam dominate; B^2 work is small",
        "cosine",
        {"full": {"n": 8000, "classes": 10, "latent": 16, "arch": [512, 256, 64], "teacher": 2048,
                  "batch": 128, "lr": 1e-4, "sup_weight": 0.0},
         "tiny": {"n": 256, "classes": 4, "latent": 4, "arch": [12, 16, 4], "teacher": 24,
                  "batch": 32, "lr": 1e-3, "sup_weight": 0.0}}),
    Transfer(
        "transfer_gaussian_sup",
        "Gaussian kernels plus supervised targets at B=512: the B^2 kernel, loss and target work dominates; student and Adam are nearly free",
        "gaussian",
        {"full": {"n": 8192, "classes": 10, "latent": 8, "arch": [32, 64, 16], "teacher": 64,
                  "batch": 512, "lr": 1e-3, "width_t": 64.0, "width_s": 8.0, "sup_weight": 0.5},
         "tiny": {"n": 256, "classes": 4, "latent": 4, "arch": [8, 16, 4], "teacher": 8,
                  "batch": 64, "lr": 3e-3, "width_t": 8.0, "width_s": 8.0, "sup_weight": 0.5}}),
    CorpusAnalysis(
        "Corpus-scale evaluate (1000 x 8000) and N=8000 QMI and equality check: N x N kernels set time and peak memory",
        {"full": {"n": 8000, "queries": 1000, "dim": 64, "classes": 10, "width": 128.0},
         "tiny": {"n": 200, "queries": 20, "dim": 8, "classes": 4, "width": 16.0}}),
    CliPipeline(
        "The five-command CLI over decimal-text files: feature-file reads and writes take about half the time",
        {"full": {"n": 4000, "queries": 1000, "raw": 128, "teacher": 256, "latent": 16, "classes": 10,
                  "arch": [64, 16], "batch": 128},
         "tiny": {"n": 128, "queries": 16, "raw": 8, "teacher": 16, "latent": 4, "classes": 4,
                  "arch": [8, 4], "batch": 16}}),
]}
