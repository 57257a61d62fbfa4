import csv
import dataclasses
import inspect
import subprocess
import sys

import numpy as np
import pytest

from scipy.spatial.distance import cdist

from embimpute import (
    DomainMatrix,
    EmbeddingTable,
    ImputationConfig,
    SyntheticTransferSpec,
    ValidationError,
    build_graph,
    graph_stats,
    impute_aligned,
    impute_embeddings,
    load_embeddings,
    run_synthetic_transfer,
    save_embeddings,
    sensitivity_sweep,
)
from embimpute import cli, domain_geometry, manifold_graph, pipeline
from embimpute.cli import main
from test_domain_geometry import overflowing_rows
from test_pipeline import DEGENERATE_INPUTS, _degenerate_problem, _random_rows, unknown_twins


def write_domain_csv(path, domain):
    lines = ["entity," + ",".join(f"f{j}" for j in range(domain.dim))]
    for entity, row in zip(domain.entities, domain.data):
        lines.append(entity + "," + ",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def fixture_files(tmp_path):
    rng = np.random.default_rng(70)
    entities = tuple(f"e{i:03d}" for i in range(50))
    domain = DomainMatrix(entities, rng.normal(size=(50, 6)))
    hidden = set(rng.choice(50, size=20, replace=False).tolist())
    tokens = [e for i, e in enumerate(entities) if i not in hidden]
    tokens += ["spare0", "spare1"]
    table = EmbeddingTable(9, {tok: rng.normal(size=9) for tok in tokens})

    domain_csv = tmp_path / "domain.csv"
    write_domain_csv(domain_csv, domain)
    vec_path = tmp_path / "known.vec"
    save_embeddings(table, vec_path)
    return tmp_path, domain, table, domain_csv, vec_path


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "embimpute", *args],
        capture_output=True,
        text=True,
    )


class TestImputeCommand:
    def test_matches_in_process_pipeline_exactly(self, fixture_files):
        tmp_path, domain, table, domain_csv, vec_path = fixture_files
        out_path = tmp_path / "out.vec"
        manifest_path = tmp_path / "run.manifest"
        proc = run_cli(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(out_path),
                "--manifest", str(manifest_path),
            ]
        )
        assert proc.returncode == 0, proc.stderr

        run = impute_embeddings(domain, table, delta=8, config=ImputationConfig())
        expected = tmp_path / "expected.vec"
        save_embeddings(run.table, expected)
        assert out_path.read_bytes() == expected.read_bytes()

        manifest = dict(
            line.split("=", 1) for line in manifest_path.read_text().splitlines()
        )
        assert manifest["q"] == "20"
        assert manifest["p"] == "30"
        assert manifest["converged"] == "true"
        assert manifest["delta"] == "8"
        assert len(manifest["domain_sha256"]) == 64
        assert any(key.startswith("time_") for key in manifest)

    def test_manifest_keys(self, fixture_files):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        manifest_path = tmp_path / "run.manifest"
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "out.vec"),
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        keys = [line.split("=", 1)[0] for line in manifest_path.read_text().splitlines()]
        assert keys == [
            "domain", "embeddings", "out", "delta", "eta", "max_iter", "seed",
            "domain_sha256", "embeddings_sha256",
            "time_load", "time_align", "time_distance", "time_graph", "time_weights",
            "time_iterate", "time_merge", "time_save",
            "n", "p", "q", "iterations", "final_relative_change", "converged",
            "lstsq_fallbacks", "uniform_fallbacks", "capped_rows", "zero_weight_columns",
            "trace",
        ]
        manifest = dict(line.split("=", 1) for line in manifest_path.read_text().splitlines())
        _, domain, table, _, _ = fixture_files
        weights = impute_embeddings(domain, table).weights
        assert manifest["lstsq_fallbacks"] == str(weights.lstsq_fallbacks)
        assert manifest["uniform_fallbacks"] == str(weights.uniform_fallbacks)
        assert manifest["capped_rows"] == str(weights.capped_rows)
        assert manifest["zero_weight_columns"] == str(weights.zero_weight_columns)

    def test_manifest_trace_parses_back_exactly(self, fixture_files):
        tmp_path, domain, table, domain_csv, vec_path = fixture_files
        manifest_path = tmp_path / "run.manifest"
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "out.vec"),
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        manifest = dict(line.split("=", 1) for line in manifest_path.read_text().splitlines())
        result = impute_embeddings(domain, table).result
        trace = tuple(float(v) for v in manifest["trace"].split(","))
        assert len(trace) == result.iterations > 0
        assert np.array_equal(trace, result.trace)
        assert trace[-1] == float(manifest["final_relative_change"])

        # a zero known block returns the zero fixed point after no sweep
        zero = tmp_path / "zero.vec"
        save_embeddings(EmbeddingTable(table.dim, {tok: 0 * v for tok, v in table.entries.items()}), zero)
        args = ["impute", "--domain", str(domain_csv), "--embeddings", str(zero)]
        assert main([*args, "--out", str(tmp_path / "z.vec"), "--manifest", str(manifest_path)]) == 0
        lines = manifest_path.read_text().splitlines()
        assert "iterations=0" in lines and lines[-1] == "trace="

    def test_progress_is_not_an_option(self, fixture_files, capsys):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        args = ["--domain", str(domain_csv), "--embeddings", str(vec_path)]
        assert main(["impute", *args, "--out", str(tmp_path / "out.vec"), "--progress"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--progress" in err
        assert not (tmp_path / "out.vec").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--eta", "inf", "finite", id="--eta"),
            pytest.param("--seed", "-1", "seed must be an integer >= 0", id="--seed"),
        ],
    )
    def test_non_finite_config_exits_one(self, fixture_files, flag, value, message, capsys):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "out.vec"),
                flag, value,
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.vec").exists()

    def test_init_sigma_is_not_an_option(self, fixture_files, capsys):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        args = ["--domain", str(domain_csv), "--embeddings", str(vec_path)]
        for command in (
            ["impute", *args, "--out", str(tmp_path / "out.vec")],
            ["synth", "--n", "40", "--p", "20"],
        ):
            assert main([*command, "--init-sigma", "0.1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "--init-sigma" in err
        assert not (tmp_path / "out.vec").exists()

    def test_zero_and_power_of_two_scaled_known_blocks(self, fixture_files):
        tmp_path, _, table, domain_csv, _ = fixture_files
        scales = {"unit": 1.0, "zero": 0.0, "tiny": 2.0**-900}
        outputs, manifests = {}, {}
        for name, scale in scales.items():
            known = tmp_path / f"{name}.vec"
            save_embeddings(
                EmbeddingTable(table.dim, {tok: scale * v for tok, v in table.entries.items()}), known
            )
            out, manifest = tmp_path / f"{name}.out.vec", tmp_path / f"{name}.txt"
            args = ["impute", "--domain", str(domain_csv), "--embeddings", str(known)]
            assert main([*args, "--out", str(out), "--manifest", str(manifest)]) == 0
            outputs[name] = load_embeddings(out).entries
            manifests[name] = dict(line.split("=", 1) for line in manifest.read_text().splitlines())

        assert len(outputs["zero"]) == 52
        assert not any(v.any() for v in outputs["zero"].values())
        assert manifests["zero"]["iterations"] == "0"
        assert manifests["zero"]["converged"] == "true"
        unit = outputs["unit"]
        assert outputs["tiny"].keys() == unit.keys()
        for tok, vec in outputs["tiny"].items():
            assert np.array_equal(vec, 2.0**-900 * unit[tok])
        assert manifests["tiny"]["iterations"] == manifests["unit"]["iterations"] != "0"
        assert manifests["tiny"]["converged"] == manifests["unit"]["converged"] == "true"

    def test_threads_flag_is_gone(self, fixture_files, capsys):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "out.vec"),
                "--threads", "2",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_missing_required_flag_is_usage_error(self, capsys):
        code = main(["impute", "--embeddings", "x.vec", "--out", "y.vec"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip().count("\n") == 0
        assert "--domain" in captured.err

    def test_all_entities_known_passes_through(self, tmp_path):
        rng = np.random.default_rng(71)
        entities = ("a", "b", "c")
        domain = DomainMatrix(entities, rng.normal(size=(3, 2)))
        table = EmbeddingTable(4, {tok: rng.normal(size=4) for tok in entities})
        domain_csv = tmp_path / "d.csv"
        write_domain_csv(domain_csv, domain)
        vec_path = tmp_path / "v.vec"
        save_embeddings(table, vec_path)
        out_path = tmp_path / "o.vec"
        manifest_path = tmp_path / "m.txt"
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(out_path),
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        loaded = load_embeddings(out_path)
        assert loaded.tokens() == table.tokens()
        manifest = dict(
            line.split("=", 1) for line in manifest_path.read_text().splitlines()
        )
        assert manifest["q"] == "0"
        assert manifest["lstsq_fallbacks"] == manifest["capped_rows"] == "0"

    def test_nonconvergence_exits_two_but_writes_output(self, fixture_files):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        out_path = tmp_path / "out.vec"
        manifest_path = tmp_path / "m.txt"
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(out_path),
                "--manifest", str(manifest_path),
                "--eta", "1e-300",
                "--max-iter", "3",
            ]
        )
        assert code == 2
        assert out_path.exists()
        manifest = dict(
            line.split("=", 1) for line in manifest_path.read_text().splitlines()
        )
        assert manifest["converged"] == "false"
        assert manifest["iterations"] == "3"

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(
            [
                "impute",
                "--domain", str(missing),
                "--embeddings", str(missing),
                "--out", str(tmp_path / "o.vec"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") or "No such file" in captured.err

    def test_domain_far_from_the_origin_imputes(self, tmp_path):
        # rows near 1e155 that differ by about 1e140, whose own products,
        # near 1e310, are not finite: the weights are posed on the
        # neighbors' offsets from each row and read the rows unit-scaled,
        # as the graph does, so no product overflows
        rng = np.random.default_rng(71)
        entities = tuple(f"e{i:02d}" for i in range(40))
        domain = DomainMatrix(entities, 1e155 + 1e140 * rng.normal(size=(40, 3)))
        write_domain_csv(tmp_path / "domain.csv", domain)
        table = EmbeddingTable(4, {e: rng.normal(size=4) for e in entities[:25]})
        save_embeddings(table, tmp_path / "known.vec")
        proc = run_cli(
            [
                "impute",
                "--domain", str(tmp_path / "domain.csv"),
                "--embeddings", str(tmp_path / "known.vec"),
                "--out", str(tmp_path / "out.vec"),
                "--manifest", str(tmp_path / "run.txt"),
            ]
        )
        assert proc.returncode == 0, proc.stderr
        manifest = (tmp_path / "run.txt").read_text()
        for counter in ("lstsq_fallbacks", "uniform_fallbacks", "capped_rows"):
            assert f"{counter}=0\n" in manifest

    def test_weight_dump(self, fixture_files):
        tmp_path, domain, table, domain_csv, vec_path = fixture_files
        dump = tmp_path / "w.txt"
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "o.vec"),
                "--dump-weights", str(dump),
            ]
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        first = lines[0].split()
        assert len(first) == 3
        int(first[0]), int(first[1]), float(first[2])
        # the known entities come first and are written as identity rows
        p = impute_embeddings(domain, table).problem.p
        assert lines[:p] == [f"{i} {i} 1" for i in range(p)]
        assert all(int(line.split()[0]) >= p for line in lines[p:])


@pytest.mark.parametrize("command", ["impute", "graph-stats"])
def test_overflowing_distances_run_as_unit_scaled_rows(command, tmp_path, capsys):
    # every distance of these rows overflows; the CLI ranks the unit-scaled
    # rows, so its output is that of those rows written out
    entities = tuple(f"e{i}" for i in range(6))
    rows = overflowing_rows()
    save_embeddings(EmbeddingTable(2, {e: [1.0, 2.0 * i] for i, e in enumerate(entities[:3])}), tmp_path / "known.vec")
    outputs = []
    for name, data in (("raw", rows), ("unit", domain_geometry._unit_scaled(rows))):
        write_domain_csv(tmp_path / f"{name}.csv", DomainMatrix(entities, data))
        args = [command, "--domain", str(tmp_path / f"{name}.csv"), "--delta", "2"]
        if command == "impute":
            args += ["--embeddings", str(tmp_path / "known.vec"), "--out", str(tmp_path / f"{name}.vec")]
        assert main(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    if command == "impute":
        assert (tmp_path / "raw.vec").read_bytes() == (tmp_path / "unit.vec").read_bytes()
    else:
        assert "connected=true\n" in outputs[0].out


def test_graph_stats_of_a_domain_times_2_to_600(fixture_files, capsys):
    tmp_path, domain, _, domain_csv, _ = fixture_files
    write_domain_csv(tmp_path / "big.csv", DomainMatrix(domain.entities, np.ldexp(domain.data, 600)))
    printed = []
    for path in (domain_csv, tmp_path / "big.csv"):
        assert main(["graph-stats", "--domain", str(path), "--delta", "5"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out.startswith("vertices=50\n")


@pytest.mark.parametrize("command", ["impute", "graph-stats"])
@pytest.mark.parametrize("delta", ["0", "50"])
def test_delta_checked_before_the_quadratic_stages(command, delta, fixture_files, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("an O(n^2) stage ran before delta was checked")

    # the pipeline calls the key stage, and never the distance matrix
    monkeypatch.setattr(domain_geometry, "euclidean_distance_matrix", never)
    monkeypatch.setattr(pipeline, "_key_rows", never)
    monkeypatch.setattr(pipeline, "_cut", never)
    monkeypatch.setattr(manifold_graph, "_mst", never)
    tmp_path, _, _, domain_csv, vec_path = fixture_files  # n = 50
    args = [command, "--domain", str(domain_csv), "--delta", delta]
    if command == "impute":
        args += ["--embeddings", str(vec_path), "--out", str(tmp_path / "out.vec")]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: minimum degree") and captured.err.count("\n") == 1
    assert not (tmp_path / "out.vec").exists()


def test_unwritable_entity_fails_before_any_stage(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the imputation ran before the entity names were checked")

    monkeypatch.setattr(cli, "impute_embeddings", never)
    rng = np.random.default_rng(72)
    entities = tuple(f"e{i}" for i in range(30))
    entities = entities[:25] + ("e 25",) + entities[26:]
    write_domain_csv(tmp_path / "domain.csv", DomainMatrix(entities, rng.normal(size=(30, 3))))
    save_embeddings(EmbeddingTable(2, {e: rng.normal(size=2) for e in entities[:20]}), tmp_path / "known.vec")
    with pytest.raises(ValidationError) as saved:  # the rule --out is written by
        save_embeddings(EmbeddingTable(1, {"e 25": [0.0]}), tmp_path / "never.vec")
    code = main(
        [
            "impute",
            "--domain", str(tmp_path / "domain.csv"),
            "--embeddings", str(tmp_path / "known.vec"),
            "--out", str(tmp_path / "out.vec"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {saved.value}\n"
    assert captured.err == "error: token 'e 25' contains whitespace and cannot be serialized\n"
    assert not (tmp_path / "out.vec").exists()


class TestDegenerateInputsThroughFiles:
    """``test_pipeline``'s degenerate inputs, written to files and run by the CLI."""

    def _write(self, tmp_path, domain, table):
        write_domain_csv(tmp_path / "domain.csv", domain)
        save_embeddings(table, tmp_path / "known.vec")
        return [
            "impute",
            "--domain", str(tmp_path / "domain.csv"),
            "--embeddings", str(tmp_path / "known.vec"),
            "--out", str(tmp_path / "out.vec"),
            "--manifest", str(tmp_path / "run.txt"),
        ]

    @pytest.mark.parametrize("name", sorted(DEGENERATE_INPUTS))
    def test_matches_the_library(self, name, tmp_path):
        make, p, delta = DEGENERATE_INPUTS[name]
        domain, table = _degenerate_problem(make(), p)
        args = self._write(tmp_path, domain, table) + ["--delta", str(delta)]
        assert main(args) == 0

        expected = tmp_path / "expected.vec"
        save_embeddings(impute_embeddings(domain, table, delta=delta).table, expected)
        out = (tmp_path / "out.vec").read_bytes()
        assert out == expected.read_bytes()
        # each known token's line is the input's line, byte for byte
        out_lines = set(out.splitlines()[1:])
        assert set((tmp_path / "known.vec").read_bytes().splitlines()[1:]) <= out_lines
        manifest = (tmp_path / "run.txt").read_text()
        for counter in ("lstsq_fallbacks", "uniform_fallbacks", "capped_rows"):
            assert f"{counter}=0\n" in manifest

    def test_unknown_twins_are_a_one_line_error(self, tmp_path):
        args = self._write(tmp_path, *unknown_twins()) + ["--delta", "8"]
        proc = run_cli(args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: some unknown rows are unreachable")
        assert proc.stderr.count("\n") == 1 and "row 298 among them" in proc.stderr
        assert not (tmp_path / "out.vec").exists()

    def test_overflowing_distances_match_unit_scaled_rows(self, tmp_path):
        # every distance of these rows overflows; the library run on the
        # unit-scaled rows gives the CLI's bytes
        rows = _random_rows(73, 30, 3, 1e154)
        domain, table = _degenerate_problem(rows, 15)
        assert main(self._write(tmp_path, domain, table)) == 0

        expected = tmp_path / "expected.vec"
        unit, _ = _degenerate_problem(domain_geometry._unit_scaled(rows), 15)
        save_embeddings(impute_embeddings(unit, table).table, expected)
        assert (tmp_path / "out.vec").read_bytes() == expected.read_bytes()
        manifest = (tmp_path / "run.txt").read_text()
        for counter in ("lstsq_fallbacks", "uniform_fallbacks", "capped_rows"):
            assert f"{counter}=0\n" in manifest


class TestOtherCommands:
    def test_graph_stats_match_build_graph_on_cdist(self, fixture_files, capsys):
        _, domain, _, domain_csv, _ = fixture_files
        code = main(["graph-stats", "--domain", str(domain_csv), "--delta", "5"])
        out = capsys.readouterr().out
        stats = graph_stats(build_graph(cdist(domain.data, domain.data), 5))
        assert code == 0
        assert out == "".join(
            f"{key}={str(stats[key]).lower()}\n"
            for key in ("vertices", "edges", "min_in_degree", "max_in_degree", "connected")
        )

    def test_graph_stats_on_three_points(self, tmp_path, capsys):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        path = tmp_path / "d.csv"
        write_domain_csv(path, domain)
        code = main(["graph-stats", "--domain", str(path), "--delta", "2"])
        out = capsys.readouterr().out
        assert code == 0
        entries = dict(line.split("=") for line in out.splitlines())
        assert entries["vertices"] == "3"
        assert entries["min_in_degree"] == "2"
        assert entries["connected"] == "true"

    def test_eval_knn_two_clusters(self, tmp_path, capsys):
        rng = np.random.default_rng(72)
        vectors = {}
        labels = ["entity,label"]
        for i in range(8):
            vectors[f"a{i}"] = rng.normal(size=3) * 0.05
            labels.append(f"a{i},alpha")
        for i in range(8):
            vectors[f"b{i}"] = rng.normal(size=3) * 0.05 + 50.0
            labels.append(f"b{i},beta")
        vec_path = tmp_path / "v.vec"
        save_embeddings(EmbeddingTable(3, vectors), vec_path)
        labels_path = tmp_path / "l.csv"
        labels_path.write_text("\n".join(labels) + "\n")

        code = main(
            ["eval", "knn", "--embeddings", str(vec_path), "--labels", str(labels_path), "--k", "2,5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["k\taccuracy", "2\t1.000", "5\t1.000"]

    def test_synth_is_deterministic(self):
        args = ["synth", "--n", "60", "--p", "40", "--seed", "3"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        header, row = a.stdout.splitlines()
        assert header.split("\t")[:4] == ["n", "p", "q", "k"]
        assert row.split("\t")[:3] == ["60", "40", "20"]

    def test_synth_sweep_table(self, capsys):
        code = main(
            [
                "synth", "--n", "60", "--p", "40", "--seed", "3",
                "--sweep", "delta", "--sweep-values", "4,6",
            ]
        )
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "delta\taccuracy"
        assert len(lines) == 3

    def test_synth_unparsable_sweep_value_is_one_line_error(self, capsys):
        code = main(["synth", "--sweep", "eta", "--sweep-values", "1e-2,x"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1e-2,x" in err

    def test_synth_fractional_delta_sweep_is_one_line_error(self, capsys):
        code = main(
            ["synth", "--n", "60", "--p", "40", "--sweep", "delta", "--sweep-values", "4,4.5"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--seed", "-1", "seed must be an integer >= 0, got -1", id="--seed"),
            pytest.param(
                "--noise-sigma", "nan", "noise_sigma must be non-negative and finite", id="--noise-sigma"
            ),
        ],
    )
    def test_synth_bad_spec_is_one_line_error(self, flag, value, message, capsys):
        code = main(["synth", "--n", "60", "--p", "40", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err


def _knn(k, labels="labels.csv"):
    return ["eval", "knn", "--embeddings", "known.vec", "--labels", labels, "--k", k]


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        pytest.param(
            ["impute", "--domain", "domain.csv", "--embeddings", "known.vec", "--out", "out.vec",
             "--dump-weights", "w.txt"],
            0,
            "note: nothing to impute; no weight matrix to dump\n"
            "imputed 0 of 3 entities in 0 iterations (converged=true)\n",
            id="impute-dump-weights-nothing-missing",
        ),
        pytest.param(
            _knn("1", labels="unlabelled.csv"), 1, "error: no embedding token has a label\n",
            id="eval-knn-no-labelled-token",
        ),
        pytest.param(_knn("2,x"), 1, "error: cannot parse k list '2,x'\n", id="eval-knn-bad-k"),
        pytest.param(_knn(""), 1, "error: at least one k value is required\n", id="eval-knn-empty-k"),
        pytest.param(
            _knn("1,5"), 1, "error: k must be an integer in [1, 2], got 5\n", id="eval-knn-k-too-large"
        ),
        pytest.param(
            ["synth", "--n", "60", "--p", "40", "--sweep", "delta", "--sweep-values", "4,4.0"],
            1,
            "error: cannot parse sweep values '4,4.0'\n",
            id="synth-sweep-fractional-delta",
        ),
        pytest.param(
            ["synth", "--sweep", "delta"], 1, "error: --sweep requires --sweep-values\n",
            id="synth-sweep-without-values",
        ),
    ],
)
def test_early_exits_report_on_stderr(argv, code, stderr, tmp_path, monkeypatch, capsys):
    # every entity known and labelled; no weight dump is ever written
    monkeypatch.chdir(tmp_path)
    domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
    write_domain_csv(tmp_path / "domain.csv", domain)
    save_embeddings(EmbeddingTable(2, {e: np.ones(2) for e in domain.entities}), "known.vec")
    (tmp_path / "labels.csv").write_text("entity,label\na,x\nb,x\nc,y\n")
    (tmp_path / "unlabelled.csv").write_text("entity,label\nz,x\n")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
    assert not (tmp_path / "w.txt").exists()


@pytest.mark.parametrize("command", ["impute", "graph-stats", "eval-knn-embeddings", "eval-knn-labels"])
def test_non_utf8_input_is_one_line_error(command, fixture_files, capsys):
    tmp_path, _, _, domain_csv, vec_path = fixture_files
    labels = tmp_path / "labels.csv"
    labels.write_text("entity,label\ne000,x\n")
    bad = tmp_path / "bad.txt"
    if command == "eval-knn-labels":
        bad.write_bytes(b"entity,label\ne000,caf\xe9\n")
        args = ["eval", "knn", "--embeddings", str(vec_path), "--labels", str(bad), "--k", "1"]
    elif command == "eval-knn-embeddings":
        bad.write_bytes(vec_path.read_bytes().replace(b"e000", b"\xe9000"))
        args = ["eval", "knn", "--embeddings", str(bad), "--labels", str(labels), "--k", "1"]
    else:
        bad.write_bytes(domain_csv.read_bytes().replace(b"e000", b"\xe9000"))
        args = [command, "--domain", str(bad)]
        if command == "impute":
            args += ["--embeddings", str(vec_path), "--out", str(tmp_path / "out.vec")]
    offset = bad.read_bytes().index(0xE9)
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not valid UTF-8 (byte {offset})\n"


def test_csv_module_fault_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "domain.csv"
    path.write_text('entity,f1\naaa,1.0\nbbb,"' + "1" * 200_000 + '"\nccc,2.0\n')
    code = main(["graph-stats", "--domain", str(path), "--delta", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    limit = csv.field_size_limit()
    assert captured.err == f"error: {path}:3: field larger than field limit ({limit})\n"


def test_flags_default_to_the_library_defaults():
    """Each subcommand parsed with only its required flags runs what the
    library runs when called with no settings."""
    config, spec = ImputationConfig(), SyntheticTransferSpec()
    graph_fns = (build_graph, impute_aligned, impute_embeddings, run_synthetic_transfer, sensitivity_sweep)
    deltas = {inspect.signature(fn).parameters["delta"].default for fn in graph_fns}
    ks = {inspect.signature(fn).parameters["k"].default for fn in (run_synthetic_transfer, sensitivity_sweep)}
    assert len(deltas) == len(ks) == 1
    (delta,), (k,) = deltas, ks

    parse = cli._build_parser().parse_args
    impute = parse(["impute", "--domain", "d.csv", "--embeddings", "e.vec", "--out", "o.vec"])
    assert (impute.delta, impute.eta, impute.max_iter, impute.seed) == (
        delta, config.eta, config.max_iter, config.seed
    )
    assert parse(["graph-stats", "--domain", "d.csv"]).delta == delta
    synth = parse(["synth"])
    assert {name: getattr(synth, name) for name in dataclasses.asdict(spec)} == dataclasses.asdict(spec)
    assert (synth.delta, synth.eta, synth.max_iter, synth.knn_k) == (
        delta, config.eta, config.max_iter, k
    )
