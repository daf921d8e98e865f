"""Spans around pkt's public functions, recorded from outside the package.

While a traced pass runs, every target function is replaced by a timing
wrapper in each ``pkt`` module namespace that binds it by name (and on
the class, for ``StudentModel`` methods); the originals are put back
when the pass ends, so untraced passes run pkt untouched.  Spans carry
name, start, end, parent and run id, stay in memory, and are written as
JSON lines when the run ends.  A span's self time is its duration minus
the time its direct children cover; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import pkt.affinity
import pkt.divergence

FUNCTIONS = [
    ("pkt.affinity", "conditional_probabilities"),
    ("pkt.kernels", "kernel_matrix"),
    ("pkt.divergence", "pkt_loss_and_grad"),
    ("pkt.divergence", "supervised_targets"),
    ("pkt.student", "adam_step"),
    ("pkt.student", "save_model"),
    ("pkt.student", "load_model"),
    ("pkt.trainer", "train"),
    ("pkt.retrieval", "evaluate"),
    ("pkt.retrieval", "rank"),
    ("pkt.retrieval", "average_precision_11pt"),
    ("pkt.qmi", "information_potentials"),
    ("pkt.qmi", "potential_equality_check"),
    ("pkt.featio", "read_features"),
    ("pkt.featio", "write_features"),
    ("pkt.featio", "read_labels"),
]
METHODS = [("pkt.student", "StudentModel", "forward"), ("pkt.student", "StudentModel", "backward")]

# What a call keeps from its bound arguments for the counts derived when its pass ends.
KEEP = {
    "kernels.kernel_matrix": lambda a: np.shape(a["x"]),
    "featio.read_features": lambda a: a["path"],
    "featio.write_features": lambda a: a["path"],
    "divergence.pkt_loss_and_grad": lambda a: (a["y"], a["student_spec"]),
}

LAYERS = ["affinity", "kernels", "divergence", "student", "trainer", "retrieval", "qmi", "featio", "cli"]

# Every per-layer metric with its unit; a traced run reports all of them,
# reading 0 for layers the workload does not reach.  Values are per traced pass.
PER_LAYER = {
    "affinity.conditional_probabilities.calls": "count",
    "affinity.conditional_probabilities.self_s": "s",
    "student.forward.self_s": "s",
    "student.backward.self_s": "s",
    "student.adam_step.self_s": "s",
    "divergence.pkt_loss_and_grad.self_s": "s",
    "divergence.supervised_targets.self_s": "s",
    "divergence.clamped_frac": "ratio",
    "kernels.kernel_matrix.calls": "count",
    "kernels.kernel_matrix.self_s": "s",
    "kernels.kernel_matrix.flops_computed": "flop",
    "kernels.kernel_matrix.bytes_computed": "B",
    "trainer.train.self_s": "s",
    "retrieval.evaluate.self_s": "s",
    "retrieval.rank.calls": "count",
    "retrieval.rank.self_s": "s",
    "retrieval.average_precision_11pt.calls": "count",
    "retrieval.average_precision_11pt.self_s": "s",
    "qmi.information_potentials.self_s": "s",
    "qmi.potential_equality_check.self_s": "s",
    "featio.read_features.self_s": "s",
    "featio.read_features.bytes": "B",
    "featio.write_features.self_s": "s",
    "featio.write_features.bytes": "B",
    "featio.read_labels.self_s": "s",
    "student.save_model.self_s": "s",
    "student.load_model.self_s": "s",
    "cli.transfer.s": "s",
    "cli.embed.s": "s",
    "cli.eval.s": "s",
    "cli.qmi.s": "s",
    **{f"layer.{name}.share": "ratio" for name in LAYERS},
    "tracing.wall_s": "s",
    "tracing.overhead_s": "s",
}


class Tracer:
    """In-memory spans for the traced passes of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self.kept: list[tuple[str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._run_id: str | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._run_id])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        keep = KEEP.get(name)
        signature = inspect.signature(fn) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if keep:
                    self.kept.append((name, keep(signature.bind(*args, **kwargs).arguments)))

        return wrapper

    @contextlib.contextmanager
    def traced_pass(self, run_id: str):
        """Patch every target, open the pass's root span, and restore the originals afterwards."""
        restore = []
        modules = [m for key, m in list(sys.modules.items()) if key == "pkt" or key.startswith("pkt.")]
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{mod_name.split('.')[-1]}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{mod_name.split('.')[-1]}.{meth}", orig))
        self._run_id = run_id
        try:
            with self.span("bench.pass"):
                yield
        finally:
            self._run_id = None
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)
            self._count_kept()

    def _count_kept(self) -> None:
        """Derive counts from the kept arguments, outside every span."""
        for name, kept in self.kept:
            if name == "kernels.kernel_matrix":
                n, d = kept
                self.counts["kernels.kernel_matrix.flops_computed"] += 2.0 * n * n * d
                self.counts["kernels.kernel_matrix.bytes_computed"] += 8.0 * n * n
            elif name == "divergence.pkt_loss_and_grad":
                y, spec = kept  # pkt's own conditionals and floor; the originals are back in place here
                q = pkt.affinity.conditional_probabilities(y, spec)
                n = q.shape[0]
                self.counts["clamped"] += int(np.sum(q <= pkt.divergence.Q_FLOOR)) - n  # the diagonal is 0
                self.counts["pairs"] += n * (n - 1)
            else:
                self.counts[f"{name}.bytes"] += os.path.getsize(kept)
        self.kept.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, each summed over the traced passes and divided by their number."""
        duration = np.array([end - start for _, start, end, _, _ in self.spans])
        child = np.zeros(len(self.spans))
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        self_time = duration - child
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        for i, (name, *_rest) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += self_time[i]
            total_s[name] += duration[i]
            layer_s[name.split(".")[0]] += self_time[i]
        passes = max(calls["bench.pass"], 1)
        pass_s = total_s["bench.pass"]

        out = {}
        for metric in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[base] / passes
            elif stat == "self_s":
                out[metric] = self_s[base] / passes
            elif metric.startswith("cli."):
                out[metric] = total_s[base] / passes
            elif stat == "share":
                out[metric] = layer_s[base.split(".")[1]] / pass_s if pass_s else 0.0
            elif metric == "divergence.clamped_frac":
                pairs = self.counts["pairs"]
                out[metric] = self.counts["clamped"] / pairs if pairs else 0.0
            elif metric.startswith("tracing."):
                continue  # filled in by the runner, which also times untraced passes
            else:
                out[metric] = self.counts[metric] / passes
        return out
