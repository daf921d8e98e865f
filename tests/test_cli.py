import re

import numpy as np
import pytest

from pkt import (
    RetrievalIndex,
    evaluate,
    information_potentials,
    cosine_kernel,
    read_features,
    write_features,
    write_labels,
)
from pkt.cli import main
from pkt.kernels import LOGITS_OVERFLOW


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(30, 5))
    teacher = np.tanh(raw @ rng.normal(size=(5, 6)))
    labels = rng.integers(0, 3, size=30)
    write_features(tmp_path / "raw.txt", raw)
    write_features(tmp_path / "teacher.txt", teacher)
    write_labels(tmp_path / "labels.txt", labels)
    return tmp_path


def transfer_args(d, out="model.txt", extra=()):
    return ["transfer", "--input", str(d / "raw.txt"), "--teacher", str(d / "teacher.txt"),
            "--arch", "8,4", "--epochs", "2", "--batch-size", "10", "--seed", "5",
            "--out", str(d / out), *extra]


def test_transfer_writes_model_and_log(workdir):
    rc = main(transfer_args(workdir, extra=["--loss-log", str(workdir / "loss.txt")]))
    assert rc == 0
    lines = (workdir / "model.txt").read_text().splitlines()
    assert lines[0] == "PKT-MODEL v1"
    assert lines[1] == "dims 5 8 4"
    log_lines = (workdir / "loss.txt").read_text().splitlines()
    assert len(log_lines) == 6
    for line in log_lines:
        epoch, batch, loss = line.split()
        int(epoch), int(batch), float(loss)


def test_transfer_deterministic_bytes(workdir):
    main(transfer_args(workdir, out="a.txt", extra=["--loss-log", str(workdir / "la.txt")]))
    main(transfer_args(workdir, out="b.txt", extra=["--loss-log", str(workdir / "lb.txt")]))
    assert (workdir / "a.txt").read_bytes() == (workdir / "b.txt").read_bytes()
    assert (workdir / "la.txt").read_bytes() == (workdir / "lb.txt").read_bytes()


def test_embed_identity_model(workdir):
    # a hand-written single-layer identity model reproduces its input
    model = ["PKT-MODEL v1", "dims 5 5"]
    for i in range(5):
        model.append(" ".join("1" if j == i else "0" for j in range(5)))
    model.append("0 0 0 0 0")
    (workdir / "id.txt").write_text("\n".join(model) + "\n")
    rc = main(["embed", "--model", str(workdir / "id.txt"),
               "--input", str(workdir / "raw.txt"), "--out", str(workdir / "emb.txt")])
    assert rc == 0
    assert np.array_equal(read_features(workdir / "emb.txt"),
                          read_features(workdir / "raw.txt"))


def test_eval_output_format_matches_library(workdir, capsys):
    rc = main(["eval", "--db", str(workdir / "teacher.txt"),
               "--db-labels", str(workdir / "labels.txt"),
               "--queries", str(workdir / "teacher.txt"),
               "--query-labels", str(workdir / "labels.txt"),
               "--top-k", "3,5"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    feats = read_features(workdir / "teacher.txt")
    labels = np.loadtxt(workdir / "labels.txt", dtype=int)
    result = evaluate(RetrievalIndex(feats, labels), feats, labels, ks=[3, 5])
    assert out[0] == f"mAP {100.0 * result.map:.4f}"
    assert out[1] == f"t-3 {100.0 * result.top_k[3]:.4f}"
    assert out[2] == f"t-5 {100.0 * result.top_k[5]:.4f}"
    assert re.fullmatch(r"mAP \d+\.\d{4}", out[0])


def test_eval_prints_a_repeated_k_once(workdir, capsys):
    def eval_output(top_k):
        rc = main(["eval", "--db", str(workdir / "teacher.txt"),
                   "--db-labels", str(workdir / "labels.txt"),
                   "--queries", str(workdir / "teacher.txt"),
                   "--query-labels", str(workdir / "labels.txt"),
                   "--top-k", top_k])
        assert rc == 0
        return capsys.readouterr().out.splitlines()

    single = eval_output("10")
    assert len(single) == 2 and single[1].startswith("t-10 ")
    assert eval_output("10,10") == single
    assert eval_output("10,3,10") == single + eval_output("3")[1:]


def test_qmi_output(workdir, capsys):
    rc = main(["qmi", "--features", str(workdir / "teacher.txt"),
               "--labels", str(workdir / "labels.txt")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["v_in", "v_all", "v_btw", "qmi"]
    feats = read_features(workdir / "teacher.txt")
    labels = np.loadtxt(workdir / "labels.txt", dtype=int)
    pots = information_potentials(feats, labels, cosine_kernel())
    assert float(out[0].split()[1]) == pots.v_in
    assert float(out[3].split()[1]) == pots.qmi


def test_qmi_rejects_a_gaussian_width_whose_logits_overflow(workdir, capsys):
    rc = main(["qmi", "--features", str(workdir / "teacher.txt"), "--labels", str(workdir / "labels.txt"),
               "--kernel", "gaussian", "--sigma", "1e-310"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pkt: {LOGITS_OVERFLOW}\n"  # no numpy warning ahead of it


def test_transfer_rejects_a_gaussian_width_whose_logits_overflow(workdir, capsys):
    rc = main(transfer_args(workdir, extra=["--kernel", "gaussian", "--sigma-t", "1e-310", "--sigma-s", "1.0"]))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pkt: epoch 0 batch 0: {LOGITS_OVERFLOW}\n"  # no numpy warning ahead of it
    assert not (workdir / "model.txt").exists()


def test_gradcheck_battery(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("max relative error ")
    assert float(out.split()[-1]) < 1e-4


def test_gradcheck_single_instance(capsys):
    rc = main(["gradcheck", "--n", "6", "--dim", "3", "--kernel", "gaussian"])
    assert rc == 0
    assert float(capsys.readouterr().out.split()[-1]) < 1e-4


@pytest.mark.parametrize("argv, message", [(["--n", "1"], "--n must be at least 2, got 1"),
                                           (["--dim", "0"], "--dim must be at least 1, got 0"),
                                           (["--n", "5", "--dim", "-2"], "--dim must be at least 1, got -2")])
def test_gradcheck_rejects_too_few_samples_or_dimensions(capsys, argv, message):
    rc = main(["gradcheck", *argv])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"pkt: {message}\n"
    assert captured.out == ""


def test_qmi_names_the_line_and_column_of_a_bad_token(workdir, capsys):
    path = workdir / "bad.txt"
    path.write_text("2 1\n1\nx\n")
    assert main(["qmi", "--features", str(path), "--labels", str(workdir / "labels.txt")]) == 1
    assert capsys.readouterr().err == f"pkt: {path}: line 3, column 1: 'x' is not a number\n"


@pytest.mark.parametrize("data", [b"1 1\n\xff\n", b"\xff 1\n1\n"])
def test_embed_names_a_feature_file_that_is_not_text(workdir, capsys, data):
    model = workdir / "id.txt"
    model.write_text("PKT-MODEL v1\ndims 1 1\n1\n0\n")
    path = workdir / "f.txt"
    path.write_bytes(data)
    rc = main(["embed", "--model", str(model), "--input", str(path), "--out", str(workdir / "e.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"pkt: {path}: 'utf-8' codec can't decode byte 0xff")
    assert not (workdir / "e.txt").exists()


def test_qmi_names_a_label_file_that_is_not_text(workdir, capsys):
    path = workdir / "l.txt"
    path.write_bytes(b"1\n\xff\n")
    rc = main(["qmi", "--features", str(workdir / "raw.txt"), "--labels", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"pkt: {path}: 'utf-8' codec can't decode byte 0xff")


def test_embed_names_the_line_and_column_of_a_bad_weight(workdir, capsys):
    model = workdir / "m.txt"
    model.write_text("PKT-MODEL v1\ndims 1 2\n0.5 abc\n0 0\n")
    rc = main(["embed", "--model", str(model), "--input", str(workdir / "raw.txt"), "--out", str(workdir / "e.txt")])
    assert rc == 1
    assert capsys.readouterr().err == f"pkt: {model}: line 3, column 2: 'abc' is not a number\n"
    assert not (workdir / "e.txt").exists()


def test_transfer_rejects_a_negative_layer_size(workdir, capsys):
    rc = main(["transfer", "--input", str(workdir / "raw.txt"), "--teacher", str(workdir / "teacher.txt"),
               "--arch", "2,-1", "--out", str(workdir / "m.txt")])
    assert rc == 1
    assert capsys.readouterr().err == "pkt: layer_dims needs at least [d_in, d_out], all positive\n"
    assert not (workdir / "m.txt").exists()


def test_gradcheck_detects_corruption(sign_flipped_gradient, capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == 1
    assert float(capsys.readouterr().out.split()[-1]) >= 1e-4


@pytest.mark.parametrize("flag, message", [("--lr", "lr must be positive and finite"),
                                           ("--sup-weight", "sup_weight must be nonnegative and finite")])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_rate_or_weight_is_rejected(workdir, capsys, flag, bad, message):
    loss_log = workdir / "loss.txt"
    rc = main(transfer_args(workdir, extra=[flag, bad, "--labels", str(workdir / "labels.txt"),
                                            "--loss-log", str(loss_log)]))
    assert rc == 1
    assert capsys.readouterr().err == f"pkt: {message}\n"
    assert not (workdir / "model.txt").exists()
    assert not loss_log.exists()


def test_gaussian_requires_widths(workdir, capsys):
    rc = main(transfer_args(workdir, extra=["--kernel", "gaussian"]))
    assert rc == 1
    assert "--sigma-t" in capsys.readouterr().err


def test_sup_weight_without_labels_is_a_precondition_error(workdir):
    rc = main(transfer_args(workdir, extra=["--sup-weight", "0.001"]))
    assert rc == 1


def test_supervised_transfer_runs(workdir):
    rc = main(transfer_args(workdir, extra=["--sup-weight", "0.001",
                                            "--labels", str(workdir / "labels.txt")]))
    assert rc == 0


def test_missing_input_is_io_error(workdir):
    rc = main(["embed", "--model", str(workdir / "nope.txt"),
               "--input", str(workdir / "raw.txt"), "--out", str(workdir / "x.txt")])
    assert rc == 2


def test_unknown_flag_is_usage_error(workdir, capsys):
    rc = main(transfer_args(workdir, extra=["--bogus"]))
    assert rc == 1
    capsys.readouterr()


def test_malformed_arch(workdir, capsys):
    rc = main(["transfer", "--input", str(workdir / "raw.txt"),
               "--teacher", str(workdir / "teacher.txt"), "--arch", "8,x",
               "--out", str(workdir / "m.txt")])
    assert rc == 1
    assert "--arch" in capsys.readouterr().err


def test_eval_reports_skipped_queries_on_stderr(workdir, capsys):
    feats = read_features(workdir / "teacher.txt")
    labels = np.loadtxt(workdir / "labels.txt", dtype=int)

    def eval_output(query_labels, top_k):
        write_labels(workdir / "qlabels.txt", query_labels)
        rc = main(["eval", "--db", str(workdir / "teacher.txt"), "--db-labels", str(workdir / "labels.txt"),
                   "--queries", str(workdir / "teacher.txt"), "--query-labels", str(workdir / "qlabels.txt"),
                   *top_k])
        assert rc == 0
        return capsys.readouterr()

    one_absent = labels.copy()
    one_absent[4] = 7  # no database item has label 7
    result = evaluate(RetrievalIndex(feats, labels), feats, one_absent, ks=[3, 5])
    assert result.n_skipped == 1
    captured = eval_output(one_absent, ["--top-k", "3,5"])
    assert captured.out == (f"mAP {100.0 * result.map:.4f}\n"
                            f"t-3 {100.0 * result.top_k[3]:.4f}\nt-5 {100.0 * result.top_k[5]:.4f}\n")
    assert captured.err == "pkt: skipped 1 queries with no relevant database item\n"

    captured = eval_output(np.full(len(labels), 7), [])
    assert captured.out == "mAP nan\n"
    assert captured.err == f"pkt: skipped {len(labels)} queries with no relevant database item\n"

    assert eval_output(labels, []).err == ""


def test_failing_transfer_keeps_finished_batches_and_writes_no_model(tmp_path, capsys):
    # the huge step overflows the student's output during batch 1
    rng = np.random.default_rng(0)
    write_features(tmp_path / "raw.txt", rng.normal(size=(256, 8)))
    write_features(tmp_path / "teacher.txt", rng.normal(size=(256, 8)))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["transfer", "--input", str(tmp_path / "raw.txt"), "--teacher", str(tmp_path / "teacher.txt"),
                   "--arch", "16,4", "--epochs", "3", "--batch-size", "64", "--lr", "1e300",
                   "--kernel", "gaussian", "--sigma-t", "1", "--sigma-s", "1",
                   "--out", str(tmp_path / "model.txt"), "--loss-log", str(tmp_path / "loss.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("pkt: epoch 0 batch 1: feature matrix contains non-finite entries")
    assert not (tmp_path / "model.txt").exists()
    lines = (tmp_path / "loss.txt").read_text().splitlines()
    assert [line.split()[:2] for line in lines] == [["0", "0"]]
    assert np.isfinite(float(lines[0].split()[2]))
