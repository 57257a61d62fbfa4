import subprocess
import sys

import numpy as np
import pytest

from embimpute import (
    DomainMatrix,
    EmbeddingTable,
    ImputationConfig,
    impute_embeddings,
    load_embeddings,
    save_embeddings,
)
from embimpute.cli import main


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
            "domain", "embeddings", "out", "delta", "eta", "max_iter", "seed", "init_sigma",
            "domain_sha256", "embeddings_sha256",
            "time_load", "time_align", "time_distance", "time_graph", "time_weights",
            "time_iterate", "time_merge", "time_save",
            "n", "p", "q", "iterations", "final_relative_change", "converged",
            "lstsq_fallbacks", "uniform_fallbacks", "capped_rows", "zero_weight_columns",
        ]
        manifest = dict(line.split("=", 1) for line in manifest_path.read_text().splitlines())
        _, domain, table, _, _ = fixture_files
        weights = impute_embeddings(domain, table).weights
        assert manifest["lstsq_fallbacks"] == str(weights.lstsq_fallbacks)
        assert manifest["uniform_fallbacks"] == str(weights.uniform_fallbacks)
        assert manifest["capped_rows"] == str(weights.capped_rows)
        assert manifest["zero_weight_columns"] == str(weights.zero_weight_columns)

    def test_progress_prints_one_line_per_sweep(self, fixture_files, capsys):
        tmp_path, domain, table, domain_csv, vec_path = fixture_files
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "out.vec"),
                "--progress",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        result = impute_embeddings(domain, table).result
        assert lines[:-1] == [
            f"iter={t} rel_change={rel:.6e}" for t, rel in enumerate(result.trace, 1)
        ]
        assert len(lines) - 1 == result.iterations > 0
        assert lines[-1].startswith("imputed ")

    @pytest.mark.parametrize("flag", ["--eta", "--init-sigma"])
    def test_non_finite_config_exits_one(self, fixture_files, flag, capsys):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
        code = main(
            [
                "impute",
                "--domain", str(domain_csv),
                "--embeddings", str(vec_path),
                "--out", str(tmp_path / "out.vec"),
                flag, "inf",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.vec").exists()

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

    def test_overflowing_weight_problem_is_one_line_error(self, tmp_path):
        # distances near 1e140 are finite, but the weight products near
        # 1e310 are not
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
            ]
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: row ") and proc.stderr.count("\n") == 1
        assert "weight problem overflows" in proc.stderr

    def test_weight_dump(self, fixture_files):
        tmp_path, _, _, domain_csv, vec_path = fixture_files
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
        first = dump.read_text().splitlines()[0].split()
        assert len(first) == 3
        int(first[0]), int(first[1]), float(first[2])


class TestOtherCommands:
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

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err
