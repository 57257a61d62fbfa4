"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints its verdict; the conftest terminal summary repeats one
pass/fail line per criterion at the end of the run.
"""

import subprocess
import sys
from math import fsum
from time import perf_counter

import numpy as np
import pytest

import embimpute as ei
from conftest import build_system
from test_manifold_graph import exhaustive_min_tree_weight, in_neighbors
from test_weight_solver import feasible_perturbations_never_improve


def _report(name: str, detail: str) -> None:
    print(f"criterion {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def twenty_systems():
    start = perf_counter()
    systems = [build_system(n=100, p=40, d=8, s=16, delta=8, seed=seed) for seed in range(20)]
    return systems, perf_counter() - start


@pytest.fixture(scope="module")
def transfer_spec():
    def spec_for(seed, noise_sigma=0.0):
        return ei.SyntheticTransferSpec(
            n=300, p=200, manifold_dim=4, affinity_dim=16, semantic_dim=12,
            noise_sigma=noise_sigma, n_labels=5, seed=seed,
        )

    return spec_for


def test_c1_deterministic_convergence(twenty_systems):
    systems, build_time = twenty_systems
    start = perf_counter()
    worst = 0.0
    for sys_ in systems:
        a = ei.power_iterate(
            sys_.fixed, sys_.known, ei.ImputationConfig(eta=1e-12, max_iter=50000, seed=1)
        )
        b = ei.power_iterate(
            sys_.fixed, sys_.known, ei.ImputationConfig(eta=1e-12, max_iter=50000, seed=20240)
        )
        assert a.converged and b.converged
        diff = np.linalg.norm(a.Y[40:] - b.Y[40:]) / np.linalg.norm(b.Y[40:])
        worst = max(worst, diff)
        assert diff < 1e-8
    elapsed = build_time + (perf_counter() - start)
    assert elapsed < 10.0
    _report("1 deterministic convergence", f"worst seed-to-seed diff {worst:.2e}, {elapsed:.2f}s")


def test_c2_power_iteration_matches_closed_form(twenty_systems):
    systems, _ = twenty_systems
    worst = 0.0
    for sys_ in systems:
        iterated = ei.power_iterate(
            sys_.fixed, sys_.known, ei.ImputationConfig(eta=1e-12, max_iter=50000)
        )
        target = ei.closed_form_solve(sys_.fixed, sys_.known)
        err = np.linalg.norm(iterated.Y[40:] - target) / np.linalg.norm(target)
        worst = max(worst, err)
        assert err < 1e-8
    _report("2 oracle equivalence", f"worst relative error {worst:.2e}")


def test_c3_spectral_structure():
    for trial in range(10):
        n = 60 + 14 * trial  # stays at or below 200
        p = int(0.4 * n)
        sys_ = build_system(n=n, p=p, d=8, s=16, delta=8, seed=100 + trial)
        report = ei.spectral_diagnostics(sys_.weights, p)
        assert abs(report.spectral_radius - 1.0) < 1e-8
        assert report.unit_eigenvalue_count == p
        assert report.free_block_spectral_radius < 1.0 - 1e-6
    _report("3 spectral structure", "10 systems, n up to 186")


def test_c4_weight_matrix_contract():
    rng = np.random.default_rng(200)
    checked = 0

    def check_row(x, M):
        w = ei.solve_row_weights(x, M)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12
        assert feasible_perturbations_never_improve(x, M, w, rng, trials=8)

    # 600 standalone random rows
    for _ in range(600):
        k = int(rng.integers(1, 11))
        d = int(rng.integers(1, 9))
        check_row(rng.normal(size=d), rng.normal(size=(k, d)))
        checked += 1

    # 400 rows taken from a live pipeline weight matrix
    sys_ = build_system(n=400, p=150, d=8, s=16, delta=8, seed=201)
    for i in range(400):
        x = sys_.domain.data[i]
        srcs = in_neighbors(sys_.graph, i)
        M = sys_.domain.data[srcs]
        cols, vals = sys_.weights.row(i)
        assert set(cols.tolist()) <= set(srcs.tolist())
        w = np.zeros(len(srcs))
        w[np.searchsorted(srcs, cols)] = vals
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12
        assert feasible_perturbations_never_improve(x, M, w, rng, trials=8)
        checked += 1

    assert checked == 1000
    _report("4 weight contract", "1000 rows, first-order checks at 1e-9")


def test_c5_mst_matches_exhaustive_minimum():
    rng = np.random.default_rng(300)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        D = ei.euclidean_distance_matrix(rng.normal(size=(n, d)))
        tree = ei.build_mst(D)
        kruskal_weight = fsum(D[u, v] for u, v, _ in tree)
        assert kruskal_weight == exhaustive_min_tree_weight(D)
    _report("5 spanning-tree minimality", "50 instances, exact equality")


def test_c6_synthetic_knowledge_transfer(transfer_spec):
    start = perf_counter()
    imputed, truth, baseline = [], [], []
    for seed in range(10):
        report = ei.run_synthetic_transfer(
            transfer_spec(seed), ei.ImputationConfig(), delta=8, k=5
        )
        imputed.append(report.imputed_accuracy)
        truth.append(report.truth_accuracy)
        baseline.append(report.baseline_accuracy)
    elapsed = perf_counter() - start
    mean_imputed = float(np.mean(imputed))
    mean_truth = float(np.mean(truth))
    mean_baseline = float(np.mean(baseline))
    assert mean_imputed >= mean_truth - 0.05
    assert mean_imputed >= 2.0 * mean_baseline
    assert elapsed < 60.0
    _report(
        "6 synthetic transfer",
        f"imputed {mean_imputed:.3f} vs truth {mean_truth:.3f}, "
        f"baseline {mean_baseline:.3f}, {elapsed:.1f}s",
    )


def test_c7_hyperparameter_robustness(transfer_spec):
    spec = transfer_spec(0)
    delta_table = ei.sensitivity_sweep("delta", [4, 8, 16], spec, ei.ImputationConfig())
    delta_acc = [acc for _, acc in delta_table]
    delta_spread = max(delta_acc) - min(delta_acc)
    assert delta_spread < 0.1

    eta_table = ei.sensitivity_sweep("eta", [1e-1, 1e-2, 1e-3], spec, ei.ImputationConfig())
    eta_acc = [acc for _, acc in eta_table]
    eta_spread = max(eta_acc) - min(eta_acc)
    assert eta_spread < 0.05
    _report(
        "7 sensitivity robustness",
        f"delta spread {delta_spread:.3f}, eta spread {eta_spread:.3f}",
    )


def test_c8_throughput_4k_entities():
    rng = np.random.default_rng(400)
    n, d, p, s = 4096, 64, 2048, 32
    entities = tuple(f"e{i:05d}" for i in range(n))
    domain = ei.DomainMatrix(entities, rng.normal(size=(n, d)))
    table = ei.EmbeddingTable(
        s, {entities[i]: rng.normal(size=s) for i in range(p)}
    )
    start = perf_counter()
    run = ei.impute_embeddings(
        domain, table, delta=8, config=ei.ImputationConfig(eta=1e-2)
    )
    elapsed = perf_counter() - start
    assert run.result.converged
    assert run.problem.q == n - p
    assert len(run.table) == n
    assert elapsed < 60.0
    _report("8 throughput", f"{n} entities in {elapsed:.1f}s")


def test_c9_io_roundtrip_and_cli_parity(tmp_path):
    # save -> load of a 1000 x 100 table is value-identical
    rng = np.random.default_rng(500)
    big = ei.EmbeddingTable(
        100, {f"tok{i:04d}": rng.normal(size=100) for i in range(1000)}
    )
    path = tmp_path / "big.vec"
    ei.save_embeddings(big, path)
    loaded = ei.load_embeddings(path)
    assert loaded.tokens() == big.tokens()
    for tok, vec in big.entries.items():
        assert loaded.entries[tok].tobytes() == vec.tobytes()

    # CLI end-to-end equals the in-process pipeline byte-for-byte
    entities = tuple(f"e{i:03d}" for i in range(60))
    domain = ei.DomainMatrix(entities, rng.normal(size=(60, 5)))
    table = ei.EmbeddingTable(
        8, {e: rng.normal(size=8) for e in entities[:35]}
    )
    domain_csv = tmp_path / "domain.csv"
    rows = ["entity," + ",".join(f"f{j}" for j in range(5))]
    for entity, row in zip(domain.entities, domain.data):
        rows.append(entity + "," + ",".join(f"{v:.17g}" for v in row))
    domain_csv.write_text("\n".join(rows) + "\n")
    vec_in = tmp_path / "known.vec"
    ei.save_embeddings(table, vec_in)

    cli_out = tmp_path / "cli.vec"
    proc = subprocess.run(
        [
            sys.executable, "-m", "embimpute", "impute",
            "--domain", str(domain_csv),
            "--embeddings", str(vec_in),
            "--out", str(cli_out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

    run = ei.impute_embeddings(domain, table, delta=8, config=ei.ImputationConfig())
    lib_out = tmp_path / "lib.vec"
    ei.save_embeddings(run.table, lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()
    _report("9 io round-trip and cli parity", "byte-identical outputs")
