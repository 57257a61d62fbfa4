"""The three benchmark workloads: input generators, timed passes and checks.

Each workload has three parts:

* ``prepare(seed, workdir, ei)`` builds the inputs from the seed alone and
  writes any input files. It runs before the clock starts.
* ``run_pass(inputs, ei, tracer)`` is one timed pass: a fixed list of
  operations (one operation is one imputation) driven through embimpute's
  public entry points. Each operation runs inside ``tracer.op()``.
* ``check(inputs, outputs, verdict, ei)`` runs after the clock stops. It
  records in ``verdict`` which operations failed and measures ``knn_acc``
  and ``fixed_point_err`` against references the benchmark computes
  itself.

Input sizes are the defaults of the ``*Size`` dataclasses; the self-tests
pass smaller sizes to run the same code on small inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.spatial.distance import cdist

KNN_K = 5
DELTA = 8
ETA = 1e-2

# Check limits, derived from seed measurements (see README.md, "Check
# limits"): an operation whose knn_acc falls below the floor, or whose
# fixed_point_err rises above the ceiling, counts as failed.
LIMITS = {
    "corr_files": {"knn_min": 0.90, "fpe_max": 0.03},
    "cli_lowdim_8k": {"knn_min": 0.90, "fpe_max": 0.05},
    "transfer_grid": {"knn_min": 0.80, "fpe_max": 0.10},  # per problem
}


@dataclass(frozen=True)
class CorrSize:
    entities: int = 1200
    days: int = 500
    sectors: int = 12
    dim: int = 300
    known_frac: float = 0.6
    missing_frac: float = 0.02
    sparse_rows: int = 8  # rows pushed over the 20% drop threshold


@dataclass(frozen=True)
class LowdimSize:
    n: int = 8192
    d: int = 64
    s: int = 32
    latent: int = 8
    clusters: int = 16


@dataclass(frozen=True)
class GridSize:
    n: int = 300
    p: int = 200
    problems: int = 4  # synthetic instances, each run at every delta
    deltas: tuple = (4, 8, 16, 32)
    etas: tuple = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass
class OpResult:
    """What one operation left behind for the check."""

    label: str
    error: str | None = None
    value: object = None
    digest: str | None = None


@dataclass
class Verdict:
    failures: list = field(default_factory=list)  # (label, reason)
    knn_acc: float = math.nan
    fixed_point_err: float = math.nan

    def fail(self, label: str, reason: str) -> None:
        self.failures.append((label, reason))


# --- shared helpers --------------------------------------------------------


def sub_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_vec(path: Path, tokens, vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {vectors.shape[1]}\n")
        for token, vec in zip(tokens, vectors.tolist()):
            fh.write(token + " " + " ".join(repr(v) for v in vec) + "\n")


def read_vec(path: Path):
    """Parse a ``.vec`` file without embimpute; raises ValueError if malformed."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        tokens, rows = [], []
        for line in fh:
            parts = line.split()
            tokens.append(parts[0])
            rows.append(parts[1:])
    if len(header) != 2:
        raise ValueError("missing 'm s' header")
    m, s = int(header[0]), int(header[1])
    vectors = np.array(rows, dtype=float)
    if len(tokens) != m or vectors.shape != (m, s):
        raise ValueError(f"header says {m}x{s}, body has {vectors.shape}")
    return tokens, vectors


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def aligned_order(domain_entities, known_tokens):
    """Known entities first, each part in domain order (embimpute.align)."""
    known = set(known_tokens)
    return [e for e in domain_entities if e in known] + [
        e for e in domain_entities if e not in known
    ]


def knn_accuracy(vectors: np.ndarray, labels: np.ndarray, subset, k: int = KNN_K) -> float:
    """Leave-one-out k-NN accuracy over ``subset``, written independently of
    embimpute but with its documented rules: neighbors by Euclidean
    distance, equal distances to the smaller index, vote ties to the label
    with the closest neighbor, then to the smaller label code."""
    subset = np.asarray(subset)
    n_labels = int(labels.max()) + 1
    correct = 0
    for lo in range(0, subset.size, 512):
        rows = subset[lo : lo + 512]
        dist = cdist(vectors[rows], vectors)
        dist[np.arange(rows.size), rows] = np.inf
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        for r, i in enumerate(rows.tolist()):
            row = dist[r]
            cand = part[r]
            kth = row[cand].max()
            if np.count_nonzero(row <= kth) > k:  # tie at the boundary
                cand = np.flatnonzero(row <= kth)
            cand = cand[np.lexsort((cand, row[cand]))][:k]
            votes = labels[cand]
            counts = np.bincount(votes, minlength=n_labels)
            tied = np.flatnonzero(counts == counts.max())
            if tied.size == 1:
                predicted = int(tied[0])
            else:
                near = row[cand]
                predicted = min(tied.tolist(), key=lambda c: (near[votes == c].min(), c))
            correct += predicted == labels[i]
    return correct / subset.size


def fixed_point(W: sparse.spmatrix, p: int, known: np.ndarray) -> np.ndarray:
    """Exact fixed point of the anchored diffusion by sparse LU:
    (I - W_qq) Y_q = W_qp Y_p. No size cap."""
    W = sparse.csr_matrix(W)
    q = W.shape[0] - p
    system = (sparse.identity(q, format="csr") - W[p:, p:]).tocsc()
    rhs = np.asarray(W[p:, :p] @ known)
    return splu(system).solve(rhs)


def relative_l1(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.abs(approx - exact).sum() / np.abs(exact).sum())


@dataclass
class FileInputs:
    """Inputs of a workload that reads and writes embedding files."""

    known_path: Path
    out_path: Path
    domain_entities: list  # the entities the output must hold, in domain order
    known_tokens: list
    known_vectors: np.ndarray
    labels: dict  # entity -> planted label
    imputed: int


def check_file_run(inp: FileInputs, label: str, verdict: Verdict, workload: str, weights) -> None:
    """Check an imputed ``.vec`` output and score it.

    ``weights(n)`` returns the run's (unfixed) weight matrix in aligned
    order; it is called only once the output itself has passed.
    """
    try:
        tokens, vectors = read_vec(inp.out_path)
    except (OSError, ValueError, IndexError) as exc:
        verdict.fail(label, f"unreadable output: {exc}")
        return
    if len(set(tokens)) != len(tokens) or set(tokens) != set(inp.domain_entities):
        verdict.fail(label, "output tokens differ from the domain entities")
        return
    if not np.isfinite(vectors).all():
        verdict.fail(label, "output contains a non-finite value")
        return
    row = {t: i for i, t in enumerate(tokens)}
    order = aligned_order(inp.domain_entities, inp.known_tokens)
    Y = vectors[[row[t] for t in order]]
    p = len(inp.known_tokens)
    if Y[:p].tobytes() != np.ascontiguousarray(inp.known_vectors, dtype=float).tobytes():
        verdict.fail(label, "a known vector is not byte-identical to the input")
        return
    labels = np.array([inp.labels[t] for t in order])
    verdict.knn_acc = knn_accuracy(Y, labels, np.arange(p, len(order)))
    exact = fixed_point(weights(len(order)), p, Y[:p])
    verdict.fixed_point_err = relative_l1(Y[p:], exact)
    check_quality(verdict, label, workload, verdict.knn_acc, verdict.fixed_point_err)


def check_quality(verdict, label, workload, knn_acc, fpe):
    limits = LIMITS[workload]
    if not knn_acc >= limits["knn_min"]:
        verdict.fail(label, f"knn_acc {knn_acc:.4f} below {limits['knn_min']}")
    if not fpe <= limits["fpe_max"]:
        verdict.fail(label, f"fixed_point_err {fpe:.4g} above {limits['fpe_max']}")


def run_op(tracer, label, fn) -> OpResult:
    """One operation; any exception marks it failed (checked later)."""
    result = OpResult(label)
    with tracer.op():
        try:
            result.value = fn()
        except Exception as exc:  # the benchmark must keep running and report it
            result.error = f"{type(exc).__name__}: {exc}"
    return result


# --- corr_files ------------------------------------------------------------


@dataclass
class CorrInputs(FileInputs):
    returns_path: Path


def corr_prepare(seed: int, workdir: Path, ei, size: CorrSize = CorrSize()) -> CorrInputs:
    rng = sub_rng(seed, 1)
    n, T = size.entities, size.days
    entities = [f"S{i:05d}" for i in range(n)]
    sector = rng.integers(size.sectors, size=n)
    market = rng.normal(0.0, 0.01, T)
    factors = rng.normal(0.0, 0.01, (size.sectors, T))
    beta = rng.uniform(0.5, 1.5, n)
    loading = rng.uniform(0.3, 1.0, n)
    returns = (
        beta[:, None] * market
        + loading[:, None] * factors[sector]
        + rng.normal(0.0, 0.015, (n, T))
    )
    missing = rng.random((n, T)) < size.missing_frac
    sparse_rows = rng.choice(n, size.sparse_rows, replace=False)
    missing[sparse_rows] |= rng.random((size.sparse_rows, T)) < 0.3
    kept = missing.mean(axis=1) <= 0.20

    returns_path = workdir / "returns.csv"
    with open(returns_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity," + ",".join(f"d{t}" for t in range(T)) + "\n")
        for i in range(n):
            cells = [
                "" if gap else f"{v:.8g}" for v, gap in zip(returns[i].tolist(), missing[i].tolist())
            ]
            fh.write(entities[i] + "," + ",".join(cells) + "\n")

    domain_entities = [e for e, k in zip(entities, kept) if k]
    pick = np.sort(rng.permutation(len(domain_entities))[: int(size.known_frac * len(domain_entities))])
    known_tokens = [domain_entities[i] for i in pick]
    centers = rng.normal(0.0, 1.0, (size.sectors, size.dim))
    sector_of = dict(zip(entities, sector.tolist()))
    known_vectors = np.array([centers[sector_of[t]] for t in known_tokens]) + rng.normal(
        0.0, 1.5, (len(known_tokens), size.dim)
    )
    known_path = workdir / "known.vec"
    write_vec(known_path, known_tokens, known_vectors)
    return CorrInputs(
        known_path=known_path,
        out_path=workdir / "full.vec",
        domain_entities=domain_entities,
        known_tokens=known_tokens,
        known_vectors=known_vectors,
        labels={e: sector_of[e] for e in domain_entities},
        imputed=len(domain_entities) - len(known_tokens),
        returns_path=returns_path,
    )


def corr_run_pass(inp: CorrInputs, ei, tracer) -> list:
    def op():
        entities, returns = ei.load_returns_csv(inp.returns_path)
        domain = ei.correlation_domain_matrix(entities, returns)
        table = ei.load_embeddings(inp.known_path)
        run = ei.impute_embeddings(
            domain, table, delta=DELTA, config=ei.ImputationConfig(eta=ETA, seed=0)
        )
        ei.save_embeddings(run.table, inp.out_path)
        return run.weights.matrix

    result = run_op(tracer, "corr_files", op)
    if result.error is None:
        result.digest = file_digest(inp.out_path)
    return [result]


def corr_check(inp: CorrInputs, outputs: list, verdict: Verdict, ei=None) -> None:
    (result,) = outputs
    if result.error:
        verdict.fail(result.label, result.error)
        return
    check_file_run(inp, result.label, verdict, "corr_files", lambda n: result.value)


# --- cli_lowdim_8k -----------------------------------------------------------


@dataclass
class LowdimInputs(FileInputs):
    domain_path: Path
    manifest_path: Path
    weights_path: Path


def lowdim_prepare(seed: int, workdir: Path, ei, size: LowdimSize = LowdimSize()) -> LowdimInputs:
    rng = sub_rng(seed, 2)
    n = size.n
    centers = 2.0 * rng.normal(size=(size.clusters, size.latent))
    latent = centers[rng.integers(size.clusters, size=n)] + rng.normal(size=(n, size.latent))
    labels = np.argmin(cdist(latent, centers), axis=1)
    scale = 1.0 / math.sqrt(size.latent)
    domain = latent @ (scale * rng.normal(size=(size.latent, size.d))) + 0.3 * rng.normal(
        size=(n, size.d)
    )
    semantic = latent @ (scale * rng.normal(size=(size.latent, size.s))) + 0.3 * rng.normal(
        size=(n, size.s)
    )
    entities = [f"w{i:05d}" for i in range(n)]
    known_idx = np.sort(rng.permutation(n)[: n // 2])

    domain_path = workdir / "domain.csv"
    with open(domain_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity," + ",".join(f"f{j}" for j in range(size.d)) + "\n")
        for token, values in zip(entities, domain.tolist()):
            fh.write(token + "," + ",".join(repr(v) for v in values) + "\n")
    known_tokens = [entities[i] for i in known_idx]
    known_vectors = semantic[known_idx]
    known_path = workdir / "known.vec"
    write_vec(known_path, known_tokens, known_vectors)
    return LowdimInputs(
        known_path=known_path,
        out_path=workdir / "full.vec",
        domain_entities=entities,
        known_tokens=known_tokens,
        known_vectors=known_vectors,
        labels=dict(zip(entities, labels.tolist())),
        imputed=n - known_idx.size,
        domain_path=domain_path,
        manifest_path=workdir / "run.manifest",
        weights_path=workdir / "weights.txt",
    )


def lowdim_argv(inp: LowdimInputs) -> list:
    # CLI defaults for every computational flag; --dump-weights exists so
    # the check can solve for the exact fixed point of the same weights.
    return [
        "impute",
        "--domain", str(inp.domain_path),
        "--embeddings", str(inp.known_path),
        "--out", str(inp.out_path),
        "--manifest", str(inp.manifest_path),
        "--dump-weights", str(inp.weights_path),
    ]


def lowdim_run_pass(inp: LowdimInputs, ei, tracer) -> list:
    import embimpute.cli

    # attribute lookup at call time, so a traced run sees the wrapper
    result = run_op(tracer, "cli_lowdim_8k", lambda: embimpute.cli.main(lowdim_argv(inp)))
    if result.error is None:
        if result.value != 0:
            result.error = f"CLI exited with code {result.value}"
        else:
            result.digest = file_digest(inp.out_path)
    return [result]


def read_weight_dump(path: Path, n: int) -> sparse.csr_matrix:
    ijw = np.loadtxt(path, ndmin=2)
    return sparse.csr_matrix(
        (ijw[:, 2], (ijw[:, 0].astype(np.int64), ijw[:, 1].astype(np.int64))), shape=(n, n)
    )


def lowdim_check(inp: LowdimInputs, outputs: list, verdict: Verdict, ei=None) -> None:
    (result,) = outputs
    if result.error:
        verdict.fail(result.label, result.error)
        return
    try:
        with open(inp.manifest_path, encoding="utf-8") as fh:
            manifest = dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)
    except OSError as exc:
        verdict.fail(result.label, f"unreadable manifest: {exc}")
        return
    if manifest.get("converged") != "true" or manifest.get("q") != str(inp.imputed):
        verdict.fail(result.label, "manifest does not record a converged run over all unknowns")
        return
    check_file_run(
        inp, result.label, verdict, "cli_lowdim_8k", lambda n: read_weight_dump(inp.weights_path, n)
    )


# --- transfer_grid -------------------------------------------------------------


@dataclass
class GridInputs:
    specs: list
    deltas: tuple
    etas: tuple
    imputed: int


def grid_prepare(seed: int, workdir: Path, ei, size: GridSize = GridSize()) -> GridInputs:
    seeds = np.random.SeedSequence(seed).generate_state(size.problems).tolist()
    specs = [ei.SyntheticTransferSpec(n=size.n, p=size.p, seed=int(s)) for s in seeds]
    ops = len(specs) * len(size.deltas) + len(size.etas)
    return GridInputs(specs, size.deltas, size.etas, ops * (size.n - size.p))


def grid_run_pass(inp: GridInputs, ei, tracer) -> list:
    config = ei.ImputationConfig(eta=ETA, seed=0)
    outputs = []
    for i, spec in enumerate(inp.specs):
        for delta in inp.deltas:
            outputs.append(
                run_op(
                    tracer,
                    f"transfer[{i}] delta={delta}",
                    lambda: ei.run_synthetic_transfer(spec, config, delta, KNN_K),
                )
            )
    # one call runs one imputation per eta value
    sweep = run_op(
        tracer,
        "sweep eta",
        lambda: ei.sensitivity_sweep("eta", inp.etas, inp.specs[0], config, DELTA, KNN_K),
    )
    outputs.extend(replace(sweep, label=f"sweep eta={eta:g}") for eta in inp.etas)
    return outputs


def grid_reference(ei, spec, delta):
    """The same problem through the staged public API, outside the clock."""
    data = ei.make_transfer_data(spec)
    distances = ei.euclidean_distance_matrix(data.domain)
    graph = ei.build_graph(distances, delta)
    weights = ei.assemble_weight_matrix(graph, data.domain)
    fixed = ei.fix_known_block(weights, spec.p)
    result = ei.power_iterate(fixed, data.semantic[: spec.p], ei.ImputationConfig(eta=ETA, seed=0))
    return data, weights.matrix, result


def grid_check(inp: GridInputs, outputs: list, verdict: Verdict, ei) -> None:
    limits = LIMITS["transfer_grid"]
    grid = outputs[: len(inp.specs) * len(inp.deltas)]
    sweep = outputs[len(grid) :]
    accs, err_num, err_den = [], 0.0, 0.0
    base = None
    for out, (spec, delta) in zip(grid, [(s, d) for s in inp.specs for d in inp.deltas]):
        if out.error:
            verdict.fail(out.label, out.error)
            continue
        report = out.value
        data, W, ref = grid_reference(ei, spec, delta)
        p = spec.p
        Y = ref.Y
        if not np.isfinite(Y).all():
            verdict.fail(out.label, "output contains a non-finite value")
            continue
        if Y[:p].tobytes() != np.ascontiguousarray(data.semantic[:p]).tobytes():
            verdict.fail(out.label, "a known vector is not byte-identical to the input")
            continue
        acc = knn_accuracy(Y, data.labels, np.arange(p, spec.n))
        if (
            report.q != spec.n - p
            or not report.converged
            or report.iterations != ref.iterations
            or report.imputed_accuracy != acc
        ):
            verdict.fail(out.label, "report disagrees with the staged reference run")
            continue
        exact = fixed_point(W, p, Y[:p])
        num = float(np.abs(Y[p:] - exact).sum())
        den = float(np.abs(exact).sum())
        if not acc >= limits["knn_min"] or not num / den <= limits["fpe_max"]:
            check_quality(verdict, out.label, "transfer_grid", acc, num / den)
            continue
        accs.append(acc)
        err_num += num
        err_den += den
        if spec is inp.specs[0] and delta == DELTA:
            base = report.imputed_accuracy
    for eta, out in zip(inp.etas, sweep):
        if out.error:
            verdict.fail(out.label, out.error)
            continue
        table = out.value
        values = [v for v, _ in table]
        acc = dict(table).get(eta, math.nan)
        if values != [float(e) for e in inp.etas] or not 0.0 <= acc <= 1.0:
            verdict.fail(out.label, "sweep table is malformed")
        elif eta == ETA and base is not None and acc != base:
            verdict.fail(out.label, "sweep at the default eta disagrees with the grid run")
        elif not acc >= limits["knn_min"]:
            verdict.fail(out.label, f"knn_acc {acc:.4f} below {limits['knn_min']}")
    if accs:
        verdict.knn_acc = float(np.mean(accs))
        verdict.fixed_point_err = err_num / err_den


# --- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    prepare: object
    run_pass: object
    check: object  # (inputs, outputs, verdict, ei) -> None


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "corr_files": Workload(corr_prepare, corr_run_pass, corr_check),
    "cli_lowdim_8k": Workload(lowdim_prepare, lowdim_run_pass, lowdim_check),
    "transfer_grid": Workload(grid_prepare, grid_run_pass, grid_check),
}


def pass_digest(outputs: list) -> list:
    """Identity of a pass's results; a later pass that matches the checked
    first pass inherits its verdict."""
    return [o.digest if o.digest is not None else (o.error or repr(o.value)) for o in outputs]
