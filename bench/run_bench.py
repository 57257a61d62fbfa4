"""Benchmark embimpute from outside, through its public entry points.

    python3 bench/run_bench.py --workload corr_files --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all --seed 1          # every workload

Run it from anywhere; it benchmarks the embimpute sources in ``src/`` next
to this directory. Each call starts fresh child processes, one at a time:
one that runs the workload for ``--seconds`` with tracing off, and, three
before it and three after it, set-up probes that only import embimpute and
run a tiny imputation (``setup_s``). With ``--trace 1`` the run gets half
the time and a second, traced run gets the other half; the traced run
reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
operation passed its checks, 1 when one failed, 2 when the benchmark
could not run at all (for example, no ``src/embimpute`` to benchmark).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_RUNS = 3  # before the measured run, and as many again after it
DEADLINE_S = 170  # a whole invocation per workload must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# run_ref is the pass time in units of the reference kernel timed next to
# each operation (child.Clock). Wall-clock pass times on the shared host
# spread by 20-40% of their median from run to run whatever the run
# length, wider than any bound; they are reported below without one.
END_TO_END = (
    ("setup_s", "s"),
    ("run_ref", "ref"),
    ("peak_rss_mib", "MiB"),
    ("knn_acc", "fraction"),
    ("success_frac", "fraction"),
)
# Metrics measured per run rather than per span, reported with the
# per-layer ones. The distance from the exact fixed point is a fixed
# property of each seed's input, and on corr_files it moves by about a
# third from seed to seed (the stop rule ends at 6 or 7 sweeps); too wide
# for a relative bound, so it is reported without one.
RUN_LEVEL = (
    "imputation_engine.fixed_point_err",
    "wall.run_s",
    "wall.entities_per_s",
    "wall.kernel_s",
    "trace.run_s",
    "trace.overhead_s",
)
UNITS = {"run_ref": "ref", "wall.entities_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    """BLAS threads capped at nproc; children run one at a time."""
    nproc = os.cpu_count() or 1
    env = dict(os.environ)
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_child(args: list, env: dict, deadline: float) -> float:
    """Run one child to completion; returns its wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), *args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child timed out after {exc.timeout} s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"child exited with code {proc.returncode}:\n{tail}")
    return elapsed


def measure_setup(env: dict, deadline: float) -> list:
    return [run_child(["--setup"], env, deadline) for _ in range(SETUP_RUNS)]


def run_workload(name, seed, seconds, traced, workdir: Path, env: dict, deadline: float) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    argv = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0", "--workdir", str(workdir), "--result", str(out),
    ]
    if traced:
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        argv += ["--spans", str(spans_dir / f"spans-{name}-seed{seed}.json")]
    run_child(argv, env, deadline)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(setup: list, run: dict) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "run_ref": statistics.median(run["passes_ref"]),
        "peak_rss_mib": run["peak_rss_mib"],
        "knn_acc": run["knn_acc"],
        "success_frac": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def wall(run: dict) -> dict:
    run_s = statistics.median(run["passes"])
    return {
        "wall.run_s": run_s,
        "wall.entities_per_s": run["imputed_per_pass"] / run_s,
        "wall.kernel_s": run["kernel_s"],
    }


def unit(name: str) -> str:
    return UNITS.get(name) or tracing.unit(name)


def number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def bench_one(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    deadline = time.perf_counter() + DEADLINE_S
    try:
        # set-up probes on both sides of the run, so one slow phase of the
        # host does not set the median
        setup = measure_setup(env, deadline)
        budget = max(1.0, seconds / 2) if trace else seconds
        plain = run_workload(name, seed, budget, False, workdir / "plain", env, deadline)
        traced = (
            run_workload(name, seed, budget, True, workdir / "traced", env, deadline)
            if trace
            else None
        )
        setup += measure_setup(env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    e2e = end_to_end(setup, plain)
    clock = wall(plain)
    runs = [plain] + ([traced] if traced else [])
    summary = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
    }
    print(f"== {name}  seed={seed}  ops={plain['attempted']}  "
          f"passes (s): {' '.join(f'{t:.3f}' for t in plain['passes'])}  "
          f"passes (ref): {' '.join(f'{t:.1f}' for t in plain['passes_ref'])}  "
          f"setup (s): {' '.join(f'{t:.3f}' for t in setup)}")
    for metric, metric_unit in END_TO_END:
        print(f"  {metric:<18} {e2e[metric]:>14.6g} {metric_unit}")
    print(f"  {'fixed_point_err':<18} {plain['fixed_point_err']:>14.6g} fraction  (per-layer, no bound)")
    for metric, value in clock.items():
        print(f"  {metric:<18} {value:>14.6g} {unit(metric)}  (per-layer, no bound)")
    print("  env " + json.dumps({
        "nproc": os.cpu_count(), **plain["env"], "git_commit": git_commit(), "seed": seed,
        "blas_threads": {v: env[v] for v in BLAS_VARS},
    }))
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    if traced:
        layers = dict(traced["layers"])
        layers["imputation_engine.fixed_point_err"] = traced["fixed_point_err"]
        layers.update(clock)
        layers["trace.run_s"] = statistics.median(traced["passes"])
        layers["trace.overhead_s"] = layers["trace.run_s"] - clock["wall.run_s"]
        print(f"  traced passes={len(traced['passes'])}  absent={traced['absent'] or 'none'}")
        for metric, value in layers.items():
            print(f"  {metric:<34} {value:>14.6g} {unit(metric)}")
        summary["metrics"] = {k: {"value": number(v), "unit": unit(k)} for k, v in layers.items()}
    else:
        summary["metrics"] = {
            k: {"value": number(e2e[k]), "unit": metric_unit} for k, metric_unit in END_TO_END
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "embimpute" / "__init__.py").is_file():
        print(f"error: no embimpute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench_one(name, args.seed, args.seconds, bool(args.trace), env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
