import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from embimpute import (
    ImputationConfig,
    LabeledEmbeddings,
    SyntheticTransferSpec,
    TransferReport,
    ValidationError,
    closed_form_solve,
    euclidean_distance_matrix,
    fix_known_block,
    assemble_weight_matrix,
    build_graph,
    knn_accuracy,
    make_transfer_data,
    power_iterate,
    run_synthetic_transfer,
    sensitivity_sweep,
)
from embimpute import domain_geometry, evaluation


def knn_oracle(vectors, labels, k, subset):
    """Plain double-loop leave-one-out majority vote, same tie rules."""
    correct = 0
    for i in subset:
        ranked = sorted(
            (math.dist(vectors[i], vectors[j]), j)
            for j in range(len(vectors))
            if j != i
        )[:k]
        counts: dict[int, int] = {}
        for _, j in ranked:
            counts[labels[j]] = counts.get(labels[j], 0) + 1
        best = max(counts.values())
        tied = [lab for lab, c in counts.items() if c == best]
        if len(tied) == 1:
            predicted = tied[0]
        else:
            predicted = min(
                tied,
                key=lambda lab: (min(d for d, j in ranked if labels[j] == lab), lab),
            )
        correct += predicted == labels[i]
    return correct / len(subset)


def knn_reference(data, k, subset=None):
    """The per-row loop knn_accuracy replaced: one stable argsort per point."""
    m = data.vectors.shape[0]
    subset = np.arange(m) if subset is None else np.asarray(subset, dtype=int)
    n_labels = len(data.label_names)
    dists = cdist(data.vectors[subset], data.vectors)
    correct = 0
    for row, i in zip(dists, subset.tolist()):
        order = np.argsort(row, kind="stable")
        neighbors = order[order != i][:k]
        votes = data.labels[neighbors]
        counts = np.bincount(votes, minlength=n_labels)
        best = counts.max()
        tied = np.flatnonzero(counts == best)
        if tied.size == 1:
            predicted = int(tied[0])
        else:
            neighbor_dists = row[neighbors]
            predicted = min(
                tied.tolist(),
                key=lambda lab: (neighbor_dists[votes == lab].min(), lab),
            )
        correct += predicted == data.labels[i]
    return correct / subset.size


def tie_heavy_cases(seed, count):
    """Labeled integer grids with duplicate points, at random k and subsets,
    k = m - 1 included."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        m = int(rng.integers(4, 40))
        grid = rng.integers(-1, 2, size=(m, int(rng.integers(1, 4)))).astype(float)
        vectors = np.vstack([grid, grid[rng.integers(m, size=m // 3)]])
        m = len(vectors)
        n_labels = int(rng.integers(2, 5))
        data = LabeledEmbeddings(
            vectors, rng.integers(n_labels, size=m), tuple("abcd"[:n_labels])
        )
        k = m - 1 if case % 4 == 0 else int(rng.integers(1, m))
        subset = None if case % 2 else rng.choice(m, size=int(rng.integers(1, m + 1)))
        yield data, k, subset


class TestKnnAccuracy:
    def test_single_label_is_perfect(self):
        rng = np.random.default_rng(60)
        data = LabeledEmbeddings(rng.normal(size=(12, 3)), np.zeros(12, dtype=int), ("only",))
        for k in (1, 3, 7):
            assert knn_accuracy(data, k) == 1.0

    def test_separated_clusters(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(10, 2)) * 0.1
        b = rng.normal(size=(10, 2)) * 0.1 + 100.0
        data = LabeledEmbeddings(
            np.vstack([a, b]), np.repeat([0, 1], 10), ("a", "b")
        )
        assert knn_accuracy(data, 2) == 1.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(62)
        vectors = rng.normal(size=(30, 4))
        labels = rng.integers(3, size=30)
        data = LabeledEmbeddings(vectors, labels, ("x", "y", "z"))
        assert knn_accuracy(data, 5) == knn_oracle(vectors, labels, 5, range(30))

    def test_one_nearest_neighbor_matches_oracle(self):
        rng = np.random.default_rng(63)
        vectors = rng.normal(size=(25, 3))
        labels = rng.integers(4, size=25)
        data = LabeledEmbeddings(vectors, labels, ("a", "b", "c", "d"))
        assert knn_accuracy(data, 1) == knn_oracle(vectors, labels, 1, range(25))

    def test_subset_matches_oracle(self):
        rng = np.random.default_rng(64)
        vectors = rng.normal(size=(40, 5))
        labels = rng.integers(2, size=40)
        data = LabeledEmbeddings(vectors, labels, ("a", "b"))
        subset = [3, 9, 11, 30, 39]
        assert knn_accuracy(data, 4, subset) == knn_oracle(vectors, labels, 4, subset)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(65)
        vectors = rng.normal(size=(20, 3))
        labels = rng.integers(3, size=20)
        perm = rng.permutation(20)
        a = knn_accuracy(LabeledEmbeddings(vectors, labels, ("a", "b", "c")), 3)
        b = knn_accuracy(
            LabeledEmbeddings(vectors[perm], labels[perm], ("a", "b", "c")), 3
        )
        assert a == b

    @pytest.mark.parametrize("rows", [None, 1, 3, 7])
    def test_matches_per_row_reference(self, rows, monkeypatch):
        # rows=None keeps the real block bound: one block per input
        for data, k, subset in tie_heavy_cases(66, 200 if rows is None else 60):
            if rows is not None:
                m = data.vectors.shape[0]
                monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * m * rows)
            assert knn_accuracy(data, k, subset) == knn_reference(data, k, subset)

    @pytest.mark.parametrize("k", [-1000, -600, -520, -3, 5, 520, 600, 1000])
    def test_power_of_two_changes_no_score(self, k):
        # the squares of these distances underflow from 2^-520 down and
        # overflow from 2^520 up; the score ranks unit-scaled vectors
        rng = np.random.default_rng(0)
        vectors, labels = rng.normal(size=(200, 6)), rng.integers(4, size=200)
        scores = [
            knn_accuracy(LabeledEmbeddings(v, labels, tuple("abcd")), 5)
            for v in (vectors, np.ldexp(vectors, k))
        ]
        assert scores[0] == scores[1] == knn_oracle(vectors, labels, 5, range(200))

    def test_values_pinned_on_exact_ties(self):
        # the values knn_accuracy gave before its column cut moved to
        # domain_geometry, on tie-heavy grids and on a 30 x 30 lattice
        # with 200 repeated points that spans ten row blocks
        got = [knn_accuracy(data, k, subset) for data, k, subset in tie_heavy_cases(92, 12)]
        assert got == [0.0, 1 / 18, 15 / 34, 7 / 12, 0.0, 0.5, 11 / 16, 4 / 11, 1.0, 5 / 19, 0.0, 0.5]
        points = np.array([(a, b) for a in range(30) for b in range(30)], dtype=float)
        labels = np.random.default_rng(93).integers(3, size=900)
        data = LabeledEmbeddings(
            np.vstack([points, points[:200]]), np.concatenate([labels, labels[:200]]), ("a", "b", "c")
        )
        assert [knn_accuracy(data, k) for k in (1, 4, 9)] == [639 / 1100, 527 / 1100, 412 / 1100]

    def test_nearest_is_a_stable_argsort_prefix(self):
        rng = np.random.default_rng(71)
        points = rng.integers(0, 3, size=(40, 2)).astype(float)
        dists = cdist(points[:15], points)
        order = np.argsort(dists, axis=1, kind="stable")
        for r in range(1, 41):
            assert np.array_equal(domain_geometry._nearest_columns(dists, r), order[:, :r])
        assert np.array_equal(dists, cdist(points[:15], points))  # left as it was

    def test_non_integer_k_rejected(self):
        data = LabeledEmbeddings(np.eye(4), np.arange(4) % 2, ("a", "b"))
        for bad in (2.5, 2.0, np.float64(2), "2", None):
            with pytest.raises(ValidationError, match="k must be an integer"):
                knn_accuracy(data, bad)

    def test_numpy_integer_k_accepted(self):
        rng = np.random.default_rng(69)
        data = LabeledEmbeddings(rng.normal(size=(15, 2)), rng.integers(2, size=15), ("a", "b"))
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            assert knn_accuracy(data, k) == knn_accuracy(data, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vectors_rejected(self, bad):
        vectors = np.random.default_rng(70).normal(size=(10, 3))
        vectors[6, 1] = bad
        vectors[8, 0] = bad
        with pytest.raises(ValidationError, match=r"^non-finite value in vector row 6$"):
            LabeledEmbeddings(vectors, np.arange(10) % 2, ("a", "b"))

    def test_boolean_mask_subset_rejected(self):
        rng = np.random.default_rng(72)
        data = LabeledEmbeddings(rng.normal(size=(20, 2)), rng.integers(2, size=20), ("a", "b"))
        mask = np.arange(20) >= 10
        with pytest.raises(ValidationError, match="^subset must be a 1-D array of integer") as info:
            knn_accuracy(data, 3, mask)
        assert "\n" not in str(info.value)
        # numpy integer dtypes still pass, with the same result
        for dtype in (np.int64, np.int32, np.uint16):
            subset = np.flatnonzero(mask).astype(dtype)
            assert knn_accuracy(data, 3, subset) == knn_accuracy(data, 3, list(range(10, 20)))

    def test_float_subset_rejected(self):
        data = LabeledEmbeddings(np.eye(4), np.arange(4) % 2, ("a", "b"))
        with pytest.raises(ValidationError, match="^subset must be a 1-D array of integer") as info:
            knn_accuracy(data, 1, [1.7, 2.2])
        assert "\n" not in str(info.value)

    def test_two_dimensional_subset_rejected(self):
        data = LabeledEmbeddings(np.eye(4), np.arange(4) % 2, ("a", "b"))
        with pytest.raises(ValidationError, match="^subset must be a 1-D array of integer") as info:
            knn_accuracy(data, 1, [[0, 1], [2, 3]])
        assert "\n" not in str(info.value)
        with pytest.raises(ValidationError, match="^subset must not be empty$"):
            knn_accuracy(data, 1, [])

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValidationError, match="^label codes must be integers") as info:
            LabeledEmbeddings(np.eye(3), [0, 1.5, 1], ("a", "b"))
        assert "\n" not in str(info.value)

    def test_k_too_large_rejected(self):
        data = LabeledEmbeddings(np.eye(3), np.arange(3), ("a", "b", "c"))
        with pytest.raises(ValidationError):
            knn_accuracy(data, 3)


class TestSyntheticTransfer:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SyntheticTransferSpec(n=10, p=10)
        with pytest.raises(ValidationError):
            SyntheticTransferSpec(manifold_dim=20, affinity_dim=4, semantic_dim=4)
        for bad in (-1, 2.5, None):
            with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
                SyntheticTransferSpec(seed=bad)

    @pytest.mark.parametrize(
        "field", ["n", "p", "manifold_dim", "affinity_dim", "semantic_dim", "n_labels"]
    )
    @pytest.mark.parametrize("bad", [0.5, "4", None])
    def test_spec_size_fields_must_be_integers(self, field, bad):
        value = getattr(SyntheticTransferSpec(), field) + bad if isinstance(bad, float) else bad
        with pytest.raises(ValidationError, match=f"^{field} must be an integer >= 1"):
            SyntheticTransferSpec(**{field: value})

    def test_spec_accepts_numpy_integers(self):
        spec = SyntheticTransferSpec(n=np.int64(60), p=np.int32(40), n_labels=np.int64(3))
        assert make_transfer_data(spec).semantic.shape == (60, spec.semantic_dim)
        # a uint32 seed is kept as an int, so the baseline's derived seed
        # does not wrap
        seed = 2**32 - 1
        numpy_seed = SyntheticTransferSpec(n=120, p=80, seed=np.uint32(seed))
        assert type(numpy_seed.seed) is int
        assert run_synthetic_transfer(numpy_seed) == run_synthetic_transfer(
            SyntheticTransferSpec(n=120, p=80, seed=seed)
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_spec_noise_sigma_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValidationError, match="noise_sigma must be non-negative and finite"):
            SyntheticTransferSpec(noise_sigma=bad)

    @pytest.mark.parametrize("bad", ["0", None])
    def test_spec_noise_sigma_must_be_real(self, bad):
        with pytest.raises(ValidationError, match="^noise_sigma must be a real number, got "):
            SyntheticTransferSpec(noise_sigma=bad)

    def test_clean_transfer_close_to_truth(self):
        spec = SyntheticTransferSpec(n=120, p=80, n_labels=4, noise_sigma=0.0, seed=1)
        report = run_synthetic_transfer(spec, ImputationConfig(), delta=6, k=5)
        assert report.converged
        assert report.imputed_accuracy >= report.truth_accuracy - 0.05
        assert report.q == 40

    def test_report_q_is_read_from_n_and_p(self):
        fields = dict(
            k=3,
            imputed_accuracy=0.5,
            truth_accuracy=0.75,
            baseline_accuracy=0.25,
            iterations=4,
            converged=True,
        )
        assert TransferReport(n=10, p=6, **fields).q == 4
        # q is not a field: a report cannot disagree with its own n and p
        with pytest.raises(TypeError):
            TransferReport(n=10, p=5, q=9, **fields)

    def test_baseline_near_chance(self):
        scores = []
        for seed in range(5):
            spec = SyntheticTransferSpec(n=150, p=90, n_labels=5, seed=seed)
            scores.append(run_synthetic_transfer(spec, ImputationConfig()).baseline_accuracy)
        assert abs(float(np.mean(scores)) - 0.2) < 0.12

    def test_single_hidden_vector_matches_closed_form(self):
        spec = SyntheticTransferSpec(n=80, p=79, noise_sigma=0.0, seed=3)
        data = make_transfer_data(spec)
        distances = euclidean_distance_matrix(data.domain)
        weights = assemble_weight_matrix(build_graph(distances, 8), data.domain)
        fixed = fix_known_block(weights, 79)
        result = power_iterate(
            fixed, data.semantic[:79], ImputationConfig(eta=1e-12, max_iter=20000)
        )
        target = closed_form_solve(fixed, data.semantic[:79])
        assert np.abs(result.Y[79:] - target).max() < 1e-6

    def test_noise_monotonically_degrades_accuracy(self):
        means = []
        for sigma in (0.0, 1.0, 3.0):
            scores = []
            for seed in range(10):
                spec = SyntheticTransferSpec(
                    n=90, p=60, n_labels=4, noise_sigma=sigma, seed=seed
                )
                scores.append(
                    run_synthetic_transfer(spec, ImputationConfig(), delta=6).imputed_accuracy
                )
            means.append(float(np.mean(scores)))
        assert means[0] > means[1] > means[2]

    def test_matches_staged_public_calls(self):
        spec = SyntheticTransferSpec(n=90, p=55, noise_sigma=0.5, seed=12)
        config = ImputationConfig(eta=1e-3)
        report = run_synthetic_transfer(spec, config, delta=5, k=4)

        data = make_transfer_data(spec)
        weights = assemble_weight_matrix(
            build_graph(euclidean_distance_matrix(data.domain), 5), data.domain
        )
        result = power_iterate(fix_known_block(weights, 55), data.semantic[:55], config)
        hidden = np.arange(55, 90)

        def score(vectors):
            return knn_accuracy(
                LabeledEmbeddings(vectors, data.labels, data.label_names), 4, hidden
            )

        # the Gaussian baseline never touches the imputation chain
        assert report == TransferReport(
            n=90,
            p=55,
            k=4,
            imputed_accuracy=score(result.Y),
            truth_accuracy=score(data.semantic),
            baseline_accuracy=report.baseline_accuracy,
            iterations=result.iterations,
            converged=result.converged,
        )

    def test_deterministic_given_seed(self):
        spec = SyntheticTransferSpec(n=70, p=40, seed=11)
        a = run_synthetic_transfer(spec, ImputationConfig())
        b = run_synthetic_transfer(spec, ImputationConfig())
        assert a == b


class TestSensitivitySweep:
    def test_single_value_equals_direct_run(self):
        spec = SyntheticTransferSpec(n=60, p=40, seed=5)
        table = sensitivity_sweep("delta", [6], spec, ImputationConfig())
        direct = run_synthetic_transfer(spec, ImputationConfig(), delta=6)
        assert table == [(6.0, direct.imputed_accuracy)]

    def test_delta_entries_equal_direct_runs(self, monkeypatch):
        builds = []
        make = evaluation.make_transfer_data

        def counting(spec):
            builds.append(spec)
            return make(spec)

        monkeypatch.setattr(evaluation, "make_transfer_data", counting)
        spec = SyntheticTransferSpec(n=90, p=60, noise_sigma=0.5, seed=7)
        config = ImputationConfig(eta=1e-2, seed=4)
        deltas = [3, 5, 9, 5]
        table = sensitivity_sweep("delta", deltas, spec, config, k=4)
        assert len(builds) == 1
        assert table == [
            (float(d), run_synthetic_transfer(spec, config, d, 4).imputed_accuracy)
            for d in deltas
        ]

    def test_delta_robustness(self):
        spec = SyntheticTransferSpec(n=120, p=80, n_labels=4, seed=6)
        table = sensitivity_sweep("delta", [4, 8, 16], spec, ImputationConfig())
        accuracies = [acc for _, acc in table]
        assert max(accuracies) - min(accuracies) < 0.1

    def test_eta_robustness(self):
        spec = SyntheticTransferSpec(n=120, p=80, n_labels=4, seed=7)
        table = sensitivity_sweep("eta", [1e-1, 1e-2, 1e-3], spec, ImputationConfig())
        accuracies = [acc for _, acc in table]
        assert max(accuracies) - min(accuracies) < 0.05

    def test_eta_sweep_changes_only_eta(self):
        spec = SyntheticTransferSpec(n=60, p=40, seed=8)
        config = ImputationConfig(eta=0.5)
        table = sensitivity_sweep("eta", [1e-3], spec, config)
        direct = run_synthetic_transfer(
            spec, dataclasses.replace(config, eta=1e-3)
        )
        assert table[0][1] == direct.imputed_accuracy

    def test_eta_entries_equal_direct_runs(self):
        spec = SyntheticTransferSpec(n=90, p=60, noise_sigma=0.5, seed=7)
        config = ImputationConfig(eta=0.5, seed=4)
        etas = [1.0, 1e-1, 1e-3, 3e-2, 1e-4]
        table = sensitivity_sweep("eta", etas, spec, config, delta=5, k=4)
        assert len({acc for _, acc in table}) == 4  # each entry sees its own eta
        assert table == [
            (
                eta,
                run_synthetic_transfer(
                    spec, dataclasses.replace(config, eta=eta), delta=5, k=4
                ).imputed_accuracy,
            )
            for eta in etas
        ]

    def test_eta_sweep_solves_graph_and_weights_once(self, monkeypatch):
        calls = []
        impute_aligned = evaluation.impute_aligned

        def counting(*args, **kwargs):
            calls.append(args)
            return impute_aligned(*args, **kwargs)

        monkeypatch.setattr(evaluation, "impute_aligned", counting)
        spec = SyntheticTransferSpec(n=60, p=40, seed=10)
        sensitivity_sweep("eta", [1e-1, 1e-2, 1e-3], spec, ImputationConfig())
        assert len(calls) == 1

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError, match="sweep parameter"):
            sensitivity_sweep("gamma", [1], SyntheticTransferSpec(), ImputationConfig())

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            sensitivity_sweep("delta", [], SyntheticTransferSpec(), ImputationConfig())

    def test_bad_eta_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(evaluation, "impute_aligned", lambda *a, **k: runs.append(a))
        spec = SyntheticTransferSpec(n=60, p=40, seed=5)
        for bad in ("x", 0.0, -1e-2, float("nan"), float("inf"), None):
            with pytest.raises(ValidationError, match="eta must be"):
                sensitivity_sweep("eta", [1e-2, bad], spec, ImputationConfig())
        assert runs == []

    def test_bad_delta_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(evaluation, "impute_aligned", lambda *a, **k: runs.append(a))
        spec = SyntheticTransferSpec(n=60, p=40, seed=5)
        for values in (["x"], [8, 0], [8, -3], [8, None], [8, 60]):
            with pytest.raises(ValidationError, match="delta sweep value"):
                sensitivity_sweep("delta", values, spec, ImputationConfig())
        assert runs == []

    def test_fractional_delta_rejected(self):
        spec = SyntheticTransferSpec(n=60, p=40, seed=5)
        for bad in (4.5, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="must be an integer"):
                sensitivity_sweep("delta", [6, bad], spec, ImputationConfig())

    def test_values_are_checked_by_their_settings_rules_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(evaluation, "make_transfer_data", lambda *a: runs.append(a))
        monkeypatch.setattr(evaluation, "impute_aligned", lambda *a, **k: runs.append(a))
        spec = SyntheticTransferSpec(n=60, p=40, seed=5)
        cases = [
            ("delta", 4.0, "delta sweep value must be an integer >= 1, got 4.0"),
            ("delta", "6", "delta sweep value must be an integer >= 1, got '6'"),
            ("eta", "0.01", "eta must be a real number, got '0.01'"),
        ]
        for parameter, bad, message in cases:
            with pytest.raises(ValidationError) as excinfo:
                sensitivity_sweep(parameter, [bad], spec, ImputationConfig())
            assert str(excinfo.value) == message
        assert runs == []

    def test_numpy_integer_deltas_accepted(self):
        spec = SyntheticTransferSpec(n=60, p=40, seed=5)
        table = sensitivity_sweep("delta", [np.int64(4), np.uint8(6)], spec, ImputationConfig())
        assert table == sensitivity_sweep("delta", [4, 6], spec, ImputationConfig())
        assert [type(value) for value, _ in table] == [float, float]


@pytest.mark.parametrize("k", [0, 60, 2.5, "5", None])
@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda spec, k: run_synthetic_transfer(spec, k=k), id="transfer"),
        pytest.param(lambda spec, k: sensitivity_sweep("delta", [4], spec, k=k), id="delta-sweep"),
        pytest.param(lambda spec, k: sensitivity_sweep("eta", [1e-2], spec, k=k), id="eta-sweep"),
    ],
)
def test_bad_k_rejected_before_any_data(run, k, monkeypatch):
    builds = []
    monkeypatch.setattr(evaluation, "make_transfer_data", lambda *a: builds.append(a))
    with pytest.raises(ValidationError, match="^k must be an integer") as excinfo:
        run(SyntheticTransferSpec(n=60, p=40, seed=5), k)
    assert "\n" not in str(excinfo.value)
    assert builds == []


@pytest.mark.parametrize("delta", [0, 60, 2.5])
@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda spec, delta: run_synthetic_transfer(spec, delta=delta), id="transfer"),
        pytest.param(lambda spec, delta: sensitivity_sweep("eta", [1e-2], spec, delta=delta), id="eta-sweep"),
    ],
)
def test_bad_fixed_delta_rejected_before_any_data(run, delta, monkeypatch):
    builds = []
    make = evaluation.make_transfer_data

    def counting(spec):
        builds.append(spec)
        return make(spec)

    monkeypatch.setattr(evaluation, "make_transfer_data", counting)
    with pytest.raises(ValidationError, match="^minimum degree must be an integer") as excinfo:
        run(SyntheticTransferSpec(n=60, p=40, seed=5), delta)
    assert "\n" not in str(excinfo.value)
    assert builds == []
