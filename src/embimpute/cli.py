"""Command-line front end: impute, graph-stats, eval knn, synth.

Exit codes: 0 success, 1 validation or usage failure (single-line
diagnostic on stderr), 2 imputation hit the iteration cap without
converging (output still written). Tables go to stdout as TSV; everything
diagnostic goes to stderr. Every default is read from the library.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict

import numpy as np

from .errors import ConvergenceError, ValidationError, _check_integer
from .embedding_io import (
    _check_serializable,
    load_domain_csv,
    load_embeddings,
    load_labels_csv,
    save_embeddings,
)
from .evaluation import (
    _KNN_K,
    LabeledEmbeddings,
    SyntheticTransferSpec,
    knn_accuracy,
    run_synthetic_transfer,
    sensitivity_sweep,
)
from .imputation_engine import ImputationConfig
from .manifold_graph import _DELTA, graph_stats
from .pipeline import _neighbor_graph, _timed, impute_embeddings
from .weight_solver import write_coordinate_text


_MANIFEST_FLAGS = ("domain", "embeddings", "out", "delta", "eta", "max_iter", "seed")
_WEIGHT_COUNTERS = ("lstsq_fallbacks", "uniform_fallbacks", "capped_rows", "zero_weight_columns")
_SPEC_DEFAULTS = asdict(SyntheticTransferSpec())


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_impute(args) -> int:
    config = ImputationConfig(eta=args.eta, max_iter=args.max_iter, seed=args.seed)
    timings = {}
    domain = _timed(timings, "load", load_domain_csv, args.domain)
    # every domain entity is written to --out, so an unwritable one fails
    # before any stage runs
    _check_serializable(domain.entities)
    table = _timed(timings, "load", load_embeddings, args.embeddings)

    run = impute_embeddings(domain, table, delta=args.delta, config=config)
    timings.update(run.timings)
    result = run.result
    _timed(timings, "save", save_embeddings, run.table, args.out)

    if args.dump_weights:
        if run.weights is None:
            print("note: nothing to impute; no weight matrix to dump", file=sys.stderr)
        else:
            write_coordinate_text(run.weights, args.dump_weights)

    if args.manifest:
        lines = [
            *(f"{key}={getattr(args, key)}" for key in _MANIFEST_FLAGS),
            f"domain_sha256={_sha256(args.domain)}",
            f"embeddings_sha256={_sha256(args.embeddings)}",
            *(f"time_{key}={value:.6f}" for key, value in timings.items()),
            f"n={run.problem.p + run.problem.q}",
            f"p={run.problem.p}",
            f"q={run.problem.q}",
            f"iterations={result.iterations}",
            f"final_relative_change={result.final_relative_change:.17g}",
            f"converged={_bool_text(result.converged)}",
            # no weights are solved when nothing is missing
            *(f"{key}={getattr(run.weights, key) if run.weights else 0}" for key in _WEIGHT_COUNTERS),
            # the relative change after each sweep, exact; empty when none ran
            "trace=" + ",".join(f"{rel:.17g}" for rel in result.trace),
        ]
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)

    print(
        f"imputed {run.problem.q} of {run.problem.p + run.problem.q} entities "
        f"in {result.iterations} iterations "
        f"(converged={_bool_text(result.converged)})",
        file=sys.stderr,
    )
    return 0 if result.converged else 2


def _cmd_graph_stats(args) -> int:
    domain = load_domain_csv(args.domain)
    delta = _check_integer(args.delta, "minimum degree", 1, domain.n - 1)
    graph, _ = _neighbor_graph(domain, delta, {})
    stats = graph_stats(graph)
    for key in ("vertices", "edges", "min_in_degree", "max_in_degree"):
        print(f"{key}={stats[key]}")
    print(f"connected={_bool_text(stats['connected'])}")
    return 0


def _cmd_eval_knn(args) -> int:
    table = load_embeddings(args.embeddings)
    labels = load_labels_csv(args.labels)
    tokens = [tok for tok in table.entries if tok in labels]
    if not tokens:
        raise ValidationError("no embedding token has a label")
    names = tuple(sorted({labels[tok] for tok in tokens}))
    code = {name: j for j, name in enumerate(names)}
    data = LabeledEmbeddings(
        np.array([table.entries[tok] for tok in tokens]),
        np.array([code[labels[tok]] for tok in tokens]),
        names,
    )
    try:
        ks = [int(v) for v in args.k.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse k list '{args.k}'") from None
    if not ks:
        raise ValidationError("at least one k value is required")
    # every k is checked before the table starts
    accuracies = [knn_accuracy(data, k) for k in ks]
    print("k\taccuracy")
    for k, accuracy in zip(ks, accuracies):
        print(f"{k}\t{accuracy:.3f}")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticTransferSpec(**{name: getattr(args, name) for name in _SPEC_DEFAULTS})
    config = ImputationConfig(eta=args.eta, max_iter=args.max_iter, seed=args.seed)
    if args.sweep:
        if not args.sweep_values:
            raise ValidationError("--sweep requires --sweep-values")
        parse = int if args.sweep == "delta" else float  # as --delta and --eta parse
        try:
            values = [parse(v) for v in args.sweep_values.split(",") if v.strip()]
        except ValueError:
            raise ValidationError(f"cannot parse sweep values '{args.sweep_values}'") from None
        table = sensitivity_sweep(args.sweep, values, spec, config, args.delta, args.knn_k)
        print(f"{args.sweep}\taccuracy")
        for value, accuracy in table:
            print(f"{value:g}\t{accuracy:.3f}")
        return 0
    report = run_synthetic_transfer(spec, config, args.delta, args.knn_k)
    print("n\tp\tq\tk\timputed_accuracy\ttruth_accuracy\tbaseline_accuracy\titerations\tconverged")
    print(
        f"{report.n}\t{report.p}\t{report.q}\t{report.k}"
        f"\t{report.imputed_accuracy:.3f}\t{report.truth_accuracy:.3f}"
        f"\t{report.baseline_accuracy:.3f}\t{report.iterations}"
        f"\t{_bool_text(report.converged)}"
    )
    return 0


def _add_diffusion_flags(parser, config: ImputationConfig) -> None:
    parser.add_argument("--delta", type=int, default=_DELTA, help="graph minimum in-degree")
    parser.add_argument("--eta", type=float, default=config.eta, help="relative-change stop threshold")
    parser.add_argument("--max-iter", type=int, default=config.max_iter)


def _build_parser() -> _Parser:
    config = ImputationConfig()
    parser = _Parser(prog="embimpute", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    impute = sub.add_parser("impute", help="recover missing embedding vectors")
    impute.add_argument("--domain", required=True, help="domain matrix CSV")
    impute.add_argument("--embeddings", required=True, help="embedding text file")
    impute.add_argument("--out", required=True, help="output embedding path")
    _add_diffusion_flags(impute, config)
    impute.add_argument("--seed", type=int, default=config.seed)
    impute.add_argument("--manifest", default=None, help="write key=value run record here")
    impute.add_argument(
        "--dump-weights",
        default=None,
        help="dump the weight matrix as 'i j w' text, aligned rows "
        "(known entities first, written as identity rows 'i i 1')",
    )
    impute.set_defaults(func=_cmd_impute)

    stats = sub.add_parser("graph-stats", help="inspect the neighbor graph")
    stats.add_argument("--domain", required=True)
    stats.add_argument("--delta", type=int, default=_DELTA)
    stats.set_defaults(func=_cmd_graph_stats)

    evaluate = sub.add_parser("eval", help="embedding evaluation")
    eval_sub = evaluate.add_subparsers(dest="eval_command", parser_class=_Parser)
    knn = eval_sub.add_parser("knn", help="leave-one-out k-NN accuracy")
    knn.add_argument("--embeddings", required=True)
    knn.add_argument("--labels", required=True, help="CSV with entity,label header")
    knn.add_argument("--k", required=True, help="comma-separated k values")
    knn.set_defaults(func=_cmd_eval_knn)

    synth = sub.add_parser("synth", help="synthetic two-space transfer experiment")
    # one flag per spec field; --seed also seeds the diffusion
    for name, default in _SPEC_DEFAULTS.items():
        synth.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    _add_diffusion_flags(synth, config)
    synth.add_argument("--knn-k", type=int, default=_KNN_K)
    synth.add_argument("--sweep", choices=("delta", "eta"), default=None)
    synth.add_argument("--sweep-values", default=None, help="comma-separated sweep values")
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise _UsageError("a subcommand is required (impute, graph-stats, eval, synth)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
