"""Command-line entry points: transfer, embed, eval, qmi, gradcheck.

Exit codes: 0 success, 1 precondition or validation failure, 2 I/O
failure.  ``pkt eval`` reports the queries it skipped on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import featio
from .gradcheck import PASS_THRESHOLD, check_instance, run_battery
from .kernels import COSINE, GAUSSIAN, KernelSpec, cosine_kernel, gaussian_kernel
from .qmi import information_potentials
from .retrieval import RetrievalIndex, evaluate
from .student import init_student, load_model, save_model
from .trainer import BatchFailure, TrainConfig, train

# Gaussian width of a single-instance gradcheck.
GRADCHECK_WIDTH = 2.0


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1.
    def error(self, message):
        raise CliError(message)


def _kernel_spec(family: str, width: float | None, flag: str) -> KernelSpec:
    if family == COSINE:
        return cosine_kernel()
    if width is None:
        raise CliError(f"gaussian kernel requires {flag}")
    return gaussian_kernel(width)


def cmd_transfer(args) -> int:
    raw = featio.read_features(args.input)
    teacher = featio.read_features(args.teacher)
    labels = featio.read_labels(args.labels) if args.labels else None
    try:
        arch = [int(tok) for tok in args.arch.split(",") if tok]
    except ValueError:
        raise CliError(f"--arch must be a comma-separated list of integers, got {args.arch!r}") from None
    if not arch:
        raise CliError("--arch must name at least the output dimension")
    teacher_spec = _kernel_spec(args.kernel, args.sigma_t, "--sigma-t")
    student_spec = _kernel_spec(args.kernel, args.sigma_s, "--sigma-s")
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        teacher_spec=teacher_spec,
        student_spec=student_spec,
        sup_weight=args.sup_weight,
        seed=args.seed,
    )
    model = init_student([raw.shape[1]] + arch, seed=args.seed)
    try:
        model, trace = train(model, raw, teacher, labels, cfg)
    except BatchFailure as exc:
        # keep the losses of the batches that finished; no model is written
        _write_loss_log(args.loss_log, exc.trace)
        raise
    save_model(model, args.out)
    _write_loss_log(args.loss_log, trace)
    return 0


def _write_loss_log(path: str | None, trace) -> None:
    if path:
        with open(path, "w") as fh:
            for entry in trace:
                fh.write(f"{entry.epoch} {entry.batch} {entry.loss:.17g}\n")


def cmd_embed(args) -> int:
    model = load_model(args.model)
    feats = featio.read_features(args.input)
    featio.write_features(args.out, model.forward(feats))
    return 0


def cmd_eval(args) -> int:
    index = RetrievalIndex(featio.read_features(args.db), featio.read_labels(args.db_labels))
    queries = featio.read_features(args.queries)
    query_labels = featio.read_labels(args.query_labels)
    ks = []
    if args.top_k:
        try:
            ks = [int(tok) for tok in args.top_k.split(",") if tok]
        except ValueError:
            raise CliError(f"--top-k must be a comma-separated list of integers, got {args.top_k!r}") from None
    result = evaluate(index, queries, query_labels, ks)
    print(f"mAP {100.0 * result.map:.4f}")
    for k, precision in result.top_k.items():
        print(f"t-{k} {100.0 * precision:.4f}")
    if result.n_skipped:
        print(f"pkt: skipped {result.n_skipped} queries with no relevant database item", file=sys.stderr)
    return 0


def cmd_qmi(args) -> int:
    feats = featio.read_features(args.features)
    labels = featio.read_labels(args.labels)
    spec = _kernel_spec(args.kernel, args.sigma, "--sigma")
    pots = information_potentials(feats, labels, spec)
    print(f"v_in {pots.v_in:.17g}")
    print(f"v_all {pots.v_all:.17g}")
    print(f"v_btw {pots.v_btw:.17g}")
    print(f"qmi {pots.qmi:.17g}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.n is not None or args.dim is not None:
        n = args.n if args.n is not None else 8
        dim = args.dim if args.dim is not None else 4
        if n < 2:
            raise CliError(f"--n must be at least 2, got {n}")
        if dim < 1:
            raise CliError(f"--dim must be at least 1, got {dim}")
        specs = [cosine_kernel(), gaussian_kernel(GRADCHECK_WIDTH)]
        worst = max(check_instance(n, dim, spec, rng) for spec in specs if args.kernel in (None, spec.family))
    else:
        worst = run_battery(args.seed)
    print(f"max relative error {worst:.6g}")
    return 0 if worst < PASS_THRESHOLD else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pkt", description="Probabilistic knowledge transfer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="train a student against teacher features")
    p.add_argument("--input", required=True, help="raw student-input feature file")
    p.add_argument("--teacher", required=True, help="teacher feature file")
    p.add_argument("--arch", required=True, help="student layer sizes after the input, e.g. 32,8")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--kernel", choices=[COSINE, GAUSSIAN], default=COSINE)
    p.add_argument("--sigma-t", type=float, default=None,
                   help="teacher Gaussian scale (the full denominator)")
    p.add_argument("--sigma-s", type=float, default=None,
                   help="student Gaussian scale (the full denominator)")
    p.add_argument("--labels", default=None, help="label file (needed when --sup-weight > 0)")
    p.add_argument("--sup-weight", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="path for the trained model")
    p.add_argument("--loss-log", default=None, help="write 'epoch batch loss' lines here")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("embed", help="run a trained model over a feature file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="retrieval evaluation: mAP and top-k precision")
    p.add_argument("--db", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--top-k", default=None, help="comma-separated k values, e.g. 10,20")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("qmi", help="information potentials of a labeled representation")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--kernel", choices=[COSINE, GAUSSIAN], default=COSINE)
    p.add_argument("--sigma", type=float, default=None, help="Gaussian scale (the full denominator)")
    p.set_defaults(func=cmd_qmi)

    p = sub.add_parser("gradcheck", help="compare the analytic loss gradient to finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None, help="batch size for a single-instance check")
    p.add_argument("--dim", type=int, default=None, help="embedding dim for a single-instance check")
    p.add_argument("--kernel", choices=[COSINE, GAUSSIAN], default=None)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # a CliError included
        print(f"pkt: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pkt: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
