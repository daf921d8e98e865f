"""The benchmark's own tests: every workload at tiny size, traced and untraced.

Run with ``python3 -m pytest perfbench``.  They check that each run
prints every metric named in ``BENCHMARK.json`` with its unit, that
the output checks catch wrong and non-repeatable results, and that
tracing leaves pkt as it found it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(capsys, tmp_path, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                     "--size", "tiny"], out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(capsys, tmp_path, workload, trace):
    code, lines, result = _tiny(capsys, tmp_path, workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for m in declared:
        assert f"{m['name']} {result['metrics'][m['name']]['value']!r} {m['unit']}" in lines
    assert any(line.startswith("failed_ratio 0.0 ratio") for line in lines)
    record = json.loads(lines[0])["record"]
    assert record["workload"] == workload and record["seed"] == 3
    assert {"nproc", "python", "numpy", "blas", "blas_threads"} <= set(record["machine"])
    if trace:
        spans = (tmp_path / f"trace-{workload}-seed3.jsonl").read_text().splitlines()
        assert {"name", "start", "end", "parent", "run"} == set(json.loads(spans[0]))
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_traced_run_restores_pkt(capsys, tmp_path):
    import pkt.student
    import pkt.trainer

    before = (pkt.trainer.train, pkt.trainer.conditional_probabilities, pkt.student.StudentModel.forward)
    _tiny(capsys, tmp_path, "transfer_gaussian_sup", 1)
    assert before == (pkt.trainer.train, pkt.trainer.conditional_probabilities, pkt.student.StudentModel.forward)


def test_wrong_result_fails_the_run(capsys, tmp_path, monkeypatch):
    import pkt.qmi

    orig = pkt.qmi.information_potentials
    monkeypatch.setattr(pkt.qmi, "information_potentials",
                        lambda *a: dataclasses.replace(orig(*a), v_in=orig(*a).v_in * 1.001))
    code, _, result = _tiny(capsys, tmp_path, "corpus_analysis", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 4  # both QMI operations, in both passes


def test_unrepeatable_result_fails_the_run(capsys, tmp_path, monkeypatch):
    import pkt.qmi

    orig, calls = pkt.qmi.potential_equality_check, []

    def drifting(*args):
        calls.append(1)
        report = orig(*args)
        return dataclasses.replace(report, max_deviation=report.max_deviation + 1e-18 * len(calls))

    monkeypatch.setattr(pkt.qmi, "potential_equality_check", drifting)
    code, _, result = _tiny(capsys, tmp_path, "corpus_analysis", 0)
    assert code == 1 and result["failed"] == 1  # the second pass differs from the first


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [["bench.pass", 0.0, 10.0, -1, "r"], ["trainer.train", 1.0, 9.0, 0, "r"],
               ["student.forward", 2.0, 4.0, 1, "r"], ["kernels.kernel_matrix", 5.0, 6.0, 1, "r"]]
    m = t.metrics()
    assert m["trainer.train.self_s"] == 5.0
    assert m["kernels.kernel_matrix.calls"] == 1.0
    assert m["layer.student.share"] == 0.2


def test_clamped_frac_follows_pkt_floor(monkeypatch):
    import pkt.divergence
    import pkt.kernels

    t = tracer.Tracer()
    y = np.random.default_rng(0).normal(size=(6, 3))
    t.kept.append(("divergence.pkt_loss_and_grad", (y, pkt.kernels.cosine_kernel())))
    monkeypatch.setattr(pkt.divergence, "Q_FLOOR", 1.0)  # every off-diagonal conditional is then clamped
    t._count_kept()
    assert t.metrics()["divergence.clamped_frac"] == 1.0


def test_peak_rss_window_excludes_earlier_memory():
    block = np.ones(12_500_000)  # 100 MB, every page touched
    del block
    before = run.peak_rss_mb()
    if not run.reset_peak_rss():
        pytest.skip("the kernel refuses to reset the RSS high-water mark")
    assert run.peak_rss_mb() < before - 50


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "transfer_cosine", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
