"""Self-tests of the benchmark's checks, counters and failure paths.

    python3 -m pytest bench/test_bench.py -q

They run the workload code on small inputs; the timed sizes are exercised
only by ``run_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import embimpute as ei  # noqa: E402
import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_CORR = wl.CorrSize(entities=160, days=120, sectors=3, dim=8, sparse_rows=2)
SMALL_LOWDIM = wl.LowdimSize(n=240, d=6, s=4, latent=3, clusters=3)
SMALL_GRID = wl.GridSize(n=80, p=50, problems=1, deltas=(4, 8), etas=(1e-1, 1e-2))


@pytest.fixture(autouse=True)
def small_input_limits(monkeypatch):
    # the check limits were set on the timed sizes; the small inputs here
    # stop the diffusion further from its fixed point
    for name in wl.LIMITS:
        monkeypatch.setitem(wl.LIMITS, name, {"knn_min": 0.8, "fpe_max": 0.1})


def workdir(base: Path, name: str) -> Path:
    path = base / name
    path.mkdir()
    return path


def checked(check, inputs, outputs):
    verdict = wl.Verdict()
    check(inputs, outputs, verdict)
    return verdict


@pytest.fixture
def corr_run(tmp_path):
    inputs = wl.corr_prepare(3, workdir(tmp_path, "corr"), ei, SMALL_CORR)
    outputs = wl.corr_run_pass(inputs, ei, tracing.NullTracer())
    return inputs, outputs


@pytest.fixture
def lowdim_run(tmp_path):
    inputs = wl.lowdim_prepare(3, workdir(tmp_path, "lowdim"), ei, SMALL_LOWDIM)
    outputs = wl.lowdim_run_pass(inputs, ei, tracing.NullTracer())
    return inputs, outputs


def rewrite_output(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_clean_runs_pass_their_checks(corr_run, lowdim_run):
    for check, (inputs, outputs) in ((wl.corr_check, corr_run), (wl.lowdim_check, lowdim_run)):
        verdict = checked(check, inputs, outputs)
        assert verdict.failures == []
        assert 0.0 < verdict.fixed_point_err < 0.05
        assert verdict.knn_acc > 0.8


def perturb_known_row(lines):
    token, first, *rest = lines[1].split(" ")
    lines[1] = " ".join([token, repr(float(first) + 1e-12), *rest])
    return lines


def drop_token(lines):
    m, s = lines[0].split()
    return [f"{int(m) - 1} {s}\n"] + lines[2:]


def put_nan(lines):
    parts = lines[-1].split(" ")
    parts[1] = "nan"
    return lines[:-1] + [" ".join(parts)]


@pytest.mark.parametrize(
    "edit, reason",
    [
        (perturb_known_row, "byte-identical"),
        (drop_token, "tokens differ"),
        (put_nan, "non-finite"),
    ],
)
@pytest.mark.parametrize("which", ["corr", "lowdim"])
def test_corrupted_output_counts_as_failed(corr_run, lowdim_run, which, edit, reason):
    inputs, outputs = corr_run if which == "corr" else lowdim_run
    check = wl.corr_check if which == "corr" else wl.lowdim_check
    # the known tokens are written first, so line 1 holds a known row
    rewrite_output(inputs.out_path, edit)
    verdict = checked(check, inputs, outputs)
    assert len(verdict.failures) == 1
    assert reason in verdict.failures[0][1]


def test_cli_exit_code_counts_as_failed(tmp_path):
    inputs = wl.lowdim_prepare(3, tmp_path, ei, SMALL_LOWDIM)
    inputs.known_path.write_text("1 2\nnot-a-token 0.0\n")  # no anchors: exit 1
    outputs = wl.lowdim_run_pass(inputs, ei, tracing.NullTracer())
    verdict = checked(wl.lowdim_check, inputs, outputs)
    assert [reason for _, reason in verdict.failures] == ["CLI exited with code 1"]


def test_quality_limit_counts_as_failed(corr_run, monkeypatch):
    inputs, outputs = corr_run
    monkeypatch.setitem(wl.LIMITS, "corr_files", {"knn_min": 1.01, "fpe_max": 0.1})
    verdict = checked(wl.corr_check, inputs, outputs)
    assert len(verdict.failures) == 1 and "knn_acc" in verdict.failures[0][1]


def test_grid_report_disagreeing_with_reference_fails(tmp_path):
    inputs = wl.grid_prepare(3, tmp_path, ei, SMALL_GRID)
    outputs = wl.grid_run_pass(inputs, ei, tracing.NullTracer())
    verdict = wl.Verdict()
    wl.grid_check(inputs, outputs, verdict, ei)
    assert verdict.failures == []
    report = outputs[0].value
    outputs[0].value = type(report)(**{**vars(report), "imputed_accuracy": 0.5})
    verdict = wl.Verdict()
    wl.grid_check(inputs, outputs, verdict, ei)
    assert [label for label, _ in verdict.failures] == [outputs[0].label]


def traced_counts(tmp_path, name, seed):
    inputs = wl.lowdim_prepare(seed, workdir(tmp_path, name), ei, SMALL_LOWDIM)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wl.lowdim_run_pass(inputs, ei, tracer)
    finally:
        tracing.uninstall(tracer)
    metrics = tracing.pass_metrics(tracer, 0)
    return {k: v for k, v in metrics.items() if tracing.unit(k) != "s" and not k.endswith("_per_s")}


def test_same_seed_gives_identical_counts(tmp_path):
    first = traced_counts(tmp_path, "a", 5)
    second = traced_counts(tmp_path, "b", 5)
    assert first == second
    n = SMALL_LOWDIM.n
    assert first["manifold_graph.edges"] >= n * wl.DELTA
    assert first["manifold_graph.edges_added"] == first["manifold_graph.edges"] - 2 * (n - 1)
    assert 0 < first["weight_solver.support_ratio"] <= 1
    assert first["imputation_engine.sweeps"] >= 1
    assert first["domain_geometry.distance_bytes"] == 8 * (n * SMALL_LOWDIM.d + n * n)


def test_trace_spans_nest_and_self_times_add_up(tmp_path):
    inputs = wl.lowdim_prepare(5, tmp_path, ei, SMALL_LOWDIM)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wl.lowdim_run_pass(inputs, ei, tracer)
    finally:
        tracing.uninstall(tracer)
    names = {s[0] for s in tracer.spans}
    assert {"op", "cli.main", "pipeline.impute_embeddings", "manifold_graph.build_mst"} <= names
    assert tracer.absent == []
    own = tracing.self_times(tracer.spans)
    op_length = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(op_length)
    assert min(own) >= 0


def test_missing_name_is_recorded_absent(monkeypatch):
    monkeypatch.delattr("embimpute.manifold_graph.augment_to_min_degree")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracing.uninstall(tracer)
    assert tracer.absent == ["embimpute.manifold_graph.augment_to_min_degree"]


def test_knn_matches_library_rules_with_ties():
    rng = np.random.default_rng(0)
    vectors = rng.integers(0, 3, size=(60, 2)).astype(float)  # many exact ties
    labels = rng.integers(0, 3, size=60)
    data = ei.LabeledEmbeddings(vectors, labels, ("a", "b", "c"))
    subset = np.arange(20, 60)
    assert wl.knn_accuracy(vectors, labels, subset) == ei.knn_accuracy(data, 5, subset)


def test_sparse_fixed_point_matches_dense_oracle():
    rng = np.random.default_rng(1)
    domain = ei.DomainMatrix([f"e{i}" for i in range(90)], rng.normal(size=(90, 5)))
    graph = ei.build_graph(ei.euclidean_distance_matrix(domain), 6)
    weights = ei.fix_known_block(ei.assemble_weight_matrix(graph, domain), 40)
    known = rng.normal(size=(40, 3))
    exact = wl.fixed_point(weights.matrix, 40, known)
    np.testing.assert_allclose(exact, ei.closed_form_solve(weights, known), rtol=1e-10, atol=1e-12)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run_bench.py", "--workload", "transfer_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_runner_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run_bench.END_TO_END)
    per_layer = list(tracing.pass_metrics(tracing.Tracer(), 0)) + list(run_bench.RUN_LEVEL)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run_bench.unit(name)) for name in per_layer
    ]


def test_clock_divides_each_operation_by_the_kernel_times_around_it(monkeypatch):
    kernel = iter([2.5, 1.5, 2.0])  # the first run fills the 2 s opening window
    monkeypatch.setattr(child, "reference_kernel", lambda: next(kernel))
    clock = child.Clock(tracing.NullTracer())
    for _ in range(2):
        with clock.op():
            pass
    clock.op_s = [3.0, 7.0]  # replace the measured lengths with known ones
    assert clock.ref_units(0, 2) == pytest.approx(3.0 / 2.0 + 7.0 / 1.75)
    assert clock.ref_units(1, 2) == pytest.approx(4.0)
