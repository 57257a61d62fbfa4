import codecs
import csv
import dataclasses
import mmap

import numpy as np
import pytest

from embimpute import (
    DomainMatrix,
    EmbeddingTable,
    ImputationConfig,
    ValidationError,
    align,
    closed_form_solve,
    impute_embeddings,
    load_domain_csv,
    load_embeddings,
    load_labels_csv,
    load_returns_csv,
    merge_imputed,
    save_embeddings,
)


def random_table(rng, tokens, dim):
    return EmbeddingTable(dim, {tok: rng.normal(size=dim) for tok in tokens})


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        table = load_embeddings(path)
        assert table.dim == 3
        assert table.tokens() == ["alpha", "beta"]
        assert table.entries["beta"].tolist() == [4.0, 5.0, 6.0]

    def test_without_header(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("alpha 1 2\nbeta 3 4\n")
        table = load_embeddings(path)
        assert table.dim == 2
        assert len(table) == 2

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5\n")
        with pytest.raises(ValidationError, match=":3:"):
            load_embeddings(path)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("alpha 1 2\nalpha 3 4\n")
        with pytest.raises(ValidationError, match="duplicate token 'alpha'"):
            load_embeddings(path)

    def test_header_row_count_checked(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("3 2\nalpha 1 2\n")
        with pytest.raises(ValidationError, match="declares 3"):
            load_embeddings(path)

    def test_malformed_float_reports_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("alpha 1 2\nbeta x 4\n")
        with pytest.raises(ValidationError, match=":2:"):
            load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_embeddings(path)

    def test_blank_line_is_an_error(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("alpha 1 2\n\nbeta 3 4\n")
        with pytest.raises(ValidationError, match=":2: blank line"):
            load_embeddings(path)

    def test_crlf_and_unicode_whitespace(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_bytes("2 2\r\nalpha\u30001\xa02\r\n#beta 1_0 -0\r\n".encode())
        table = load_embeddings(path)
        assert table.tokens() == ["alpha", "#beta"]
        assert table.entries["#beta"].tobytes() == np.array([10.0, -0.0]).tobytes()

    def test_numeric_looking_first_data_line(self, tmp_path):
        # two integer fields are read as a header, so dimensions come from it
        path = tmp_path / "v.vec"
        path.write_text("1 1\n7 0.5\n")
        table = load_embeddings(path)
        assert table.entries["7"].tolist() == [0.5]


class TestEmbeddingTable:
    @pytest.mark.parametrize(
        "dim, message",
        [
            ("3", "embedding dimension must be an integer >= 1, got '3'"),
            (2.5, "embedding dimension must be an integer >= 1, got 2.5"),
            (0, "embedding dimension must be an integer >= 1, got 0"),
            (None, "embedding dimension must be an integer >= 1, got None"),
        ],
        ids=["str", "float", "zero", "none"],
    )
    def test_bad_dim_is_one_line_error(self, dim, message):
        with pytest.raises(ValidationError) as excinfo:
            EmbeddingTable(dim, {"a": [1.0, 2.0, 3.0]})
        assert str(excinfo.value) == message

    def test_numpy_integer_dim_stored_as_int(self):
        table = EmbeddingTable(np.int64(3), {"a": [1.0, 2.0, 3.0]})
        assert type(table.dim) is int and table.dim == 3

    @pytest.mark.parametrize(
        "token", [5, b"a", None, ("a",), ""], ids=["int", "bytes", "none", "tuple", "empty"]
    )
    def test_token_must_be_a_non_empty_string(self, token):
        with pytest.raises(ValidationError) as excinfo:
            EmbeddingTable(2, {token: [1.0, 2.0]})
        assert str(excinfo.value) == f"embedding token must be a non-empty string, got {token!r}"

    def test_numpy_string_token_accepted(self, tmp_path):
        table = EmbeddingTable(2, {np.str_("a"): [1.0, 2.0]})
        save_embeddings(table, tmp_path / "v.vec")
        assert load_embeddings(tmp_path / "v.vec").tokens() == ["a"]


class TestSaveEmbeddings:
    def test_roundtrip_is_value_identical(self, tmp_path):
        rng = np.random.default_rng(50)
        table = random_table(rng, [f"tok{i}" for i in range(50)], 16)
        path = tmp_path / "v.vec"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.dim == 16
        assert loaded.tokens() == table.tokens()
        for tok in table.entries:
            assert loaded.entries[tok].tobytes() == table.entries[tok].tobytes()

    def test_bytes_match_the_per_value_format(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, 0.1, -1.7976931348623157e308, 1 / 3, 1e16, 2.5e-310]
        rng = np.random.default_rng(51)
        entries = {"edge": values, "negated": [-v for v in values]}
        entries.update((f"tok{i}", rng.normal(size=len(values)) * 10.0 ** rng.integers(-300, 300))
                       for i in range(20))
        table = EmbeddingTable(len(values), entries)
        path = tmp_path / "v.vec"
        save_embeddings(table, path)
        expected = f"{len(table)} {table.dim}\n" + "".join(
            f"{token} " + " ".join(f"{v:.17g}" for v in vec) + "\n"
            for token, vec in table.entries.items()
        )
        assert path.read_bytes() == expected.encode()
        assert b" -0 " in path.read_bytes() and b" 4.9406564584124654e-324 " in path.read_bytes()

    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "v.vec"
        save_embeddings(EmbeddingTable(5, {}), path)
        assert path.read_text() == "0 5\n"
        assert len(load_embeddings(path)) == 0

    def test_token_with_space_rejected(self, tmp_path):
        table = EmbeddingTable(1, {"bad token": [1.0]})
        with pytest.raises(ValidationError, match="whitespace"):
            save_embeddings(table, tmp_path / "v.vec")


class TestAlign:
    def test_all_present(self):
        rng = np.random.default_rng(51)
        domain = DomainMatrix(("a", "b", "c"), rng.normal(size=(3, 2)))
        problem = align(domain, random_table(rng, ["a", "b", "c", "zzz"], 4))
        assert problem.p == 3 and problem.q == 0
        assert problem.order == ("a", "b", "c")

    def test_none_present_rejected(self):
        rng = np.random.default_rng(52)
        domain = DomainMatrix(("a", "b"), rng.normal(size=(2, 2)))
        with pytest.raises(ValidationError, match="no anchors"):
            align(domain, random_table(rng, ["x"], 4))

    def test_stable_partition(self):
        rng = np.random.default_rng(53)
        entities = tuple(f"e{i}" for i in range(10))
        domain = DomainMatrix(entities, rng.normal(size=(10, 3)))
        table = random_table(rng, ["e1", "e4", "e6", "e9"], 5)
        problem = align(domain, table)
        assert problem.p == 4 and problem.q == 6
        assert problem.order == (
            "e1", "e4", "e6", "e9", "e0", "e2", "e3", "e5", "e7", "e8",
        )
        # oracle: stable partition via two filtered passes
        present = [e for e in entities if e in table.entries]
        absent = [e for e in entities if e not in table.entries]
        assert list(problem.order) == present + absent
        assert np.array_equal(problem.known, np.array([table.entries[e] for e in present]))
        assert np.array_equal(problem.domain.data, domain.data[problem.permutation])

    def test_permutation_inverse_roundtrip(self):
        rng = np.random.default_rng(54)
        entities = tuple(f"e{i}" for i in range(12))
        domain = DomainMatrix(entities, rng.normal(size=(12, 2)))
        table = random_table(rng, ["e3", "e7"], 3)
        problem = align(domain, table)
        inverse = np.argsort(problem.permutation)
        assert tuple(problem.order[i] for i in inverse) == entities
        assert np.array_equal(problem.domain.data[inverse], domain.data)

    @pytest.mark.parametrize("rows, mapped", [(1023, False), (1024, True)])
    def test_rows_from_4_mib_are_copied_off_the_heap(self, rows, mapped):
        # 512 float64 columns: 1024 rows are exactly 4 MiB
        rng = np.random.default_rng(55)
        entities = tuple(f"e{i}" for i in range(rows))
        domain = DomainMatrix(entities, rng.normal(size=(rows, 512)))
        problem = align(domain, random_table(rng, entities[1::3], 2))
        assert np.array_equal(problem.domain.data, domain.data[problem.permutation])
        base = problem.domain.data
        while isinstance(base, (np.ndarray, memoryview)):
            base = base.obj if isinstance(base, memoryview) else base.base
        assert isinstance(base, mmap.mmap) == mapped


    def test_order_and_counts_follow_domain_and_known(self):
        rng = np.random.default_rng(59)
        entities = tuple(f"e{i}" for i in range(10))
        domain = DomainMatrix(entities, rng.normal(size=(10, 3)))
        problem = align(domain, random_table(rng, ["e2", "e5", "e7"], 4))
        assert problem.order is problem.domain.entities
        assert (problem.p, problem.q) == (3, 7)
        fewer = dataclasses.replace(problem, known=problem.known[:2])
        assert (fewer.p, fewer.q, fewer.order) == (2, 8, problem.order)
        # the counts are no longer fields that could disagree with the rows
        with pytest.raises(TypeError):
            dataclasses.replace(problem, p=4, q=6)


class TestMergeImputed:
    def test_no_missing_entities_passthrough(self):
        rng = np.random.default_rng(55)
        domain = DomainMatrix(("a", "b"), rng.normal(size=(2, 2)))
        table = random_table(rng, ["a", "b", "other"], 3)
        run = impute_embeddings(domain, table)
        assert run.table.tokens() == table.tokens()
        for tok in table.entries:
            assert run.table.entries[tok].tobytes() == table.entries[tok].tobytes()

    def test_existing_entries_untouched(self):
        rng = np.random.default_rng(56)
        entities = tuple(f"e{i}" for i in range(30))
        domain = DomainMatrix(entities, rng.normal(size=(30, 4)))
        extra = [f"x{i}" for i in range(100)]
        table = random_table(rng, list(entities[:25]) + extra, 6)
        before = {tok: vec.tobytes() for tok, vec in table.entries.items()}
        run = impute_embeddings(domain, table, delta=4)
        assert len(run.table) == 130  # 125 existing plus 5 imputed
        for tok, payload in before.items():
            assert run.table.entries[tok].tobytes() == payload

    def test_full_pipeline_matches_closed_form_through_permutation(self):
        rng = np.random.default_rng(57)
        entities = tuple(f"e{i}" for i in range(24))
        domain = DomainMatrix(entities, rng.normal(size=(24, 5)))
        missing = {"e2", "e9", "e10", "e17"}
        table = random_table(rng, [e for e in entities if e not in missing], 7)
        run = impute_embeddings(
            domain, table, delta=4, config=ImputationConfig(eta=1e-13, max_iter=20000)
        )
        # oracle: dense fixed-point solve on the same fixed system
        from embimpute import fix_known_block

        fixed = fix_known_block(run.weights, run.problem.p)
        target = closed_form_solve(fixed, run.problem.known)
        for offset, tok in enumerate(run.problem.order[run.problem.p :]):
            assert np.allclose(run.table.entries[tok], target[offset], atol=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(58)
        domain = DomainMatrix(("a", "b", "c"), rng.normal(size=(3, 2)))
        table = random_table(rng, ["a", "b"], 4)
        problem = align(domain, table)

        class Bogus:
            Y = np.zeros((2, 4))

        with pytest.raises(ValidationError, match="shape"):
            merge_imputed(table, problem, Bogus())


class TestCsvLoaders:
    def test_domain_csv_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("entity,f1,f2\naaa,1.0,2.0\nbbb,3.0,4.0\n")
        dm = load_domain_csv(path)
        assert dm.entities == ("aaa", "bbb")
        assert dm.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_domain_csv_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("aaa,1.0,2.0\nbbb,3.0,4.0\n")
        assert load_domain_csv(path).entities == ("aaa", "bbb")

    def test_domain_csv_rejects_missing_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("aaa,1.0,\nbbb,3.0,4.0\n")
        with pytest.raises(ValidationError, match="empty cell"):
            load_domain_csv(path)

    def test_returns_csv_missing_becomes_nan(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("entity,d1,d2,d3\naaa,0.1,,0.3\nbbb,0.2,0.1,\n")
        entities, values = load_returns_csv(path)
        assert entities == ["aaa", "bbb"]
        assert np.isnan(values[0, 1]) and np.isnan(values[1, 2])
        assert values[0, 0] == 0.1

    def test_labels_csv(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("entity,label\naaa,tech\nbbb,energy\n")
        assert load_labels_csv(path) == {"aaa": "tech", "bbb": "energy"}

    def test_labels_csv_requires_rows(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("entity,label\n")
        with pytest.raises(ValidationError):
            load_labels_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("aaa,1.0,2.0\nbbb,3.0\n")
        with pytest.raises(ValidationError, match="expected 3 fields"):
            load_domain_csv(path)

    @pytest.mark.parametrize("loader", [load_domain_csv, load_returns_csv])
    def test_duplicate_entity_names_its_row(self, loader, tmp_path):
        # the returns loader used to keep both rows
        path = tmp_path / "d.csv"
        path.write_text("entity,f1,f2\naaa,1.0,2.0\nbbb,3.0,4.0\naaa,5.0,6.0\nbbb,6.0,7.0\n")
        with pytest.raises(ValidationError) as info:
            loader(path)
        assert str(info.value) == f"{path}:4: duplicate entity 'aaa'"

    @pytest.mark.parametrize("loader", [load_domain_csv, load_returns_csv, load_labels_csv])
    def test_rows_are_named_by_file_line(self, loader, tmp_path):
        # the blank first line counts: the repeated entity is on line 5
        path = tmp_path / "d.csv"
        path.write_text("\nentity,f1\naaa,1.0\nbbb,2.0\naaa,3.0\n")
        with pytest.raises(ValidationError) as info:
            loader(path)
        assert str(info.value) == f"{path}:5: duplicate entity 'aaa'"

    @pytest.mark.parametrize("loader", [load_domain_csv, load_returns_csv, load_labels_csv])
    def test_csv_module_fault_is_one_line_error(self, loader, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('entity,f1\naaa,1.0\nbbb,"' + "1" * 200_000 + '"\n')
        with pytest.raises(ValidationError) as info:
            loader(path)
        limit = csv.field_size_limit()
        assert str(info.value) == f"{path}:3: field larger than field limit ({limit})"

    def test_quoted_fields_and_crlf_are_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'entity,f1,f2\r\n"a,b",1.5,"2"\r\n\r\nccc, 3 ,4e0\r\n')
        dm = load_domain_csv(path)
        assert dm.entities == ("a,b", "ccc")
        assert dm.data.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_float_spellings_beyond_numpys_reader(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("aaa,1_0,\u0661\u0662, \nbbb,,-inf,Infinity\n")
        entities, values = load_returns_csv(path)
        assert entities == ["aaa", "bbb"]
        assert values[0, :2].tolist() == [10.0, 12.0] and np.isnan(values[0, 2])
        assert np.isnan(values[1, 0]) and values[1, 1:].tolist() == [-np.inf, np.inf]


class TestNonUtf8Input:
    CONTENT = {
        load_domain_csv: b"entity,f1\naaa,1.0\nb\xe9b,2.0\n",
        load_returns_csv: b"entity,f1\naaa,1.0\nb\xe9b,2.0\n",
        load_embeddings: b"2 1\naaa 1.0\nb\xe9b 2.0\n",
        load_labels_csv: b"entity,label\naaa,x\nb\xe9b,y\n",
    }

    @pytest.mark.parametrize("loader", list(CONTENT), ids=lambda f: f.__name__)
    def test_one_line_error_names_the_byte(self, loader, tmp_path):
        path = tmp_path / "in.txt"
        content = self.CONTENT[loader]
        path.write_bytes(content)
        with pytest.raises(ValidationError) as info:
            loader(path)
        offset = content.index(0xE9)
        assert str(info.value) == f"{path}: not valid UTF-8 (byte {offset})"


def parsed(value):
    """A loader's result as plain comparable values, NaN included."""
    if isinstance(value, DomainMatrix):
        return value.entities, value.data.tobytes()
    if isinstance(value, EmbeddingTable):
        return value.dim, {token: vec.tobytes() for token, vec in value.entries.items()}
    if isinstance(value, tuple):  # load_returns_csv
        return value[0], value[1].tobytes()
    return value


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet programs write
    one, is not part of the first line."""

    CONTENT = [
        pytest.param(load_domain_csv, b"aaa,1.0,2.0\nbbb,3.0,4.0\n", id="domain"),
        # the csv module's path
        pytest.param(load_domain_csv, b'"aaa",1.0,2.0\nbbb,3.0,4.0\n', id="domain_quoted"),
        pytest.param(load_returns_csv, b"aaa,1.0,\nbbb,3.0,4.0\n", id="returns"),
        pytest.param(load_embeddings, b"2 2\naaa 1.0 2.0\nbbb 3.0 4.0\n", id="vec_header"),
        pytest.param(load_embeddings, b"aaa 1.0 2.0\nbbb 3.0 4.0\n", id="vec"),
        pytest.param(load_labels_csv, b"entity,label\naaa,x\nbbb,y\n", id="labels"),
    ]

    @pytest.mark.parametrize("loader, content", CONTENT)
    def test_parses_like_the_file_without_it(self, loader, content, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(content)
        marked.write_bytes(codecs.BOM_UTF8 + content)
        assert parsed(loader(marked)) == parsed(loader(plain))
        assert "aaa" in str(parsed(loader(marked)))

    def test_vec_header_still_counts(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_bytes(codecs.BOM_UTF8 + b"3 2\naaa 1.0 2.0\nbbb 3.0 4.0\n")
        with pytest.raises(ValidationError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: header declares 3 rows, found 2"

    @pytest.mark.parametrize(
        "loader", list(TestNonUtf8Input.CONTENT), ids=lambda f: f.__name__
    )
    def test_non_utf8_error_names_the_byte_in_the_file(self, loader, tmp_path):
        path = tmp_path / "in.txt"
        content = codecs.BOM_UTF8 + TestNonUtf8Input.CONTENT[loader]
        path.write_bytes(content)
        with pytest.raises(ValidationError) as info:
            loader(path)
        assert str(info.value) == f"{path}: not valid UTF-8 (byte {content.index(0xE9)})"
