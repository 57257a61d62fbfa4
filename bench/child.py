"""One benchmark process: either a set-up probe or one run of a workload.

Started by ``run_bench.py``, one child at a time; not meant to be run by
hand. A fresh process per run keeps ``ru_maxrss`` a per-run peak.

    child.py --root DIR --setup
    child.py --root DIR --workload NAME --seed N --seconds S --trace 0|1 \
             --workdir DIR --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def import_embimpute(root: Path):
    """Import embimpute from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import embimpute

    if not Path(embimpute.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"embimpute was imported from {embimpute.__file__}, not {src}")
    import embimpute.cli  # noqa: F401  (the CLI workload's entry point; import before timing)

    return embimpute


def warm_up(ei) -> None:
    """A tiny imputation through every stage."""
    import numpy as np

    rng = np.random.default_rng(0)
    domain = ei.DomainMatrix([f"e{i}" for i in range(24)], rng.normal(size=(24, 4)))
    table = ei.EmbeddingTable(3, {f"e{i}": rng.normal(size=3) for i in range(12)})
    run = ei.impute_embeddings(domain, table, delta=4)
    if len(run.table) != 24:
        raise SystemExit("warm-up imputation returned the wrong number of rows")


class Clock:
    """Times each operation, and the reference kernel before the first and
    after every operation.

    The host's speed drifts by a third over minutes, and a fixed kernel
    drifts with it (README.md, "Noise"). Dividing an operation's time by
    the mean of the kernel times on either side of it gives its length in
    kernel units, which the drift mostly cancels out of. The kernel is the
    benchmark's own code and runs while no embimpute call is active.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.op_s = []
        self.ref_s = [kernel_sample(2.0)]

    @contextmanager
    def op(self):
        with self.tracer.op():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.op_s.append(time.perf_counter() - t0)
        self.ref_s.append(kernel_sample(KERNEL_SHARE * self.op_s[-1]))

    def ref_units(self, first: int, last: int) -> float:
        """Operations ``first`` to ``last - 1``, in kernel units."""
        return sum(
            self.op_s[i] / (0.5 * (self.ref_s[i] + self.ref_s[i + 1])) for i in range(first, last)
        )


KERNEL_SHARE = 0.05  # kernel time after an operation, as a share of its length
_KERNEL_DATA = None


def kernel_sample(budget_s: float) -> float:
    """Median time of kernel runs repeated until they have taken
    ``budget_s`` (at least one run): a long operation gets a steadier
    sample, a short one costs little."""
    times = [reference_kernel()]
    while sum(times) < budget_s:
        times.append(reference_kernel())
    return statistics.median(times)


def reference_kernel() -> float:
    """A fixed piece of work of the kinds the workloads do, in roughly equal
    parts: interpreted Python, text formatting, a distance computation and
    a stable sort. About 18 ms on a quiet host. Returns its wall time."""
    global _KERNEL_DATA
    import numpy as np
    from scipy.spatial.distance import cdist

    if _KERNEL_DATA is None:
        rng = np.random.default_rng(0)
        _KERNEL_DATA = (
            rng.normal(size=(400, 64)),
            rng.normal(size=40_000),
            rng.normal(size=(200, 32)).tolist(),
        )
    points, keys, rows = _KERNEL_DATA
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    "\n".join(" ".join(repr(v) for v in row) for row in rows)
    cdist(points, points)
    np.argsort(keys, kind="stable")
    return time.perf_counter() - t0


def run_workload(args, ei) -> dict:
    import numpy as np
    import scipy

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    inputs = workload.prepare(args.seed, workdir, ei)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    clock = Clock(tracer)

    durations, ref_units, layer_rows = [], [], []
    attempted, failures = 0, []
    verdict = None
    clean_digest = None
    started, check_s = time.perf_counter(), 0.0
    while True:
        first_span = len(tracer.spans) if args.trace else 0
        first_op = len(clock.op_s)
        outputs = workload.run_pass(inputs, ei, clock)
        durations.append(sum(clock.op_s[first_op:]))
        ref_units.append(clock.ref_units(first_op, len(clock.op_s)))
        if args.trace:
            layer_rows.append(tracing.pass_metrics(tracer, first_span))
        attempted += len(outputs)
        # a pass identical to an earlier clean pass needs no second check
        digest = workloads.pass_digest(outputs)
        if digest != clean_digest:
            t0 = time.perf_counter()
            pass_verdict = workloads.Verdict()
            workload.check(inputs, outputs, pass_verdict, ei)
            failures.extend(pass_verdict.failures)
            verdict = verdict or pass_verdict
            if not pass_verdict.failures:
                clean_digest = digest
            check_s += time.perf_counter() - t0
        # start another pass only if it should end within the budget, which
        # covers the kernel runs but not the checks
        measured = time.perf_counter() - started - check_s
        if measured + measured / len(durations) > args.seconds:
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "passes": durations,
        "passes_ref": ref_units,
        "kernel_s": statistics.median(clock.ref_s),
        "ops_per_pass": len(outputs),
        "imputed_per_pass": inputs.imputed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"{label}: {reason}" for label, reason in failures[:10]],
        "knn_acc": verdict.knn_acc,
        "fixed_point_err": verdict.fixed_point_err,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "embimpute": getattr(ei, "__version__", "unknown"),
        },
    }
    if args.trace:
        keys = layer_rows[0].keys()
        result["layers"] = {k: statistics.median(row[k] for row in layer_rows) for k in keys}
        result["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "fields": ["name", "start", "end", "parent", "op"],
                        "spans": tracer.spans,
                        "counts": tracer.counts,
                        "absent": tracer.absent,
                    },
                    fh,
                )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    ei = import_embimpute(Path(args.root))
    warm_up(ei)
    if args.setup:
        return 0
    result = run_workload(args, ei)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
