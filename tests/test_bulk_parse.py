"""The bulk parse (np.loadtxt) against the per-cell loop on a seeded corpus.

Each corpus file is loaded twice: once as the loaders run, and once with
the bulk parse switched off, so that every file goes through the per-cell
loop. Both runs must give the same tokens and the same value bits, or the
same error message.
"""

import random

import numpy as np
import pytest

import embimpute.embedding_io as eio

FINITE = [
    "0", "-0", "0.0", "-0.0", "+0", "1", "-17", "1.", ".5", "+.5e-3", "1E5", "1e+05",
    "5e-324", "4.9406564584124654e-324", "2.5e-310", "-1e-320", "1e308", "1e-999",
]
NON_FINITE = ["nan", "NaN", "-nan", "+nan", "inf", "-inf", "Infinity", "-Infinity", "INF", "iNfInItY", "1e999"]
RARE = [
    "1_0", "1_000.5", "١٢", "١.٥",  # float() reads these, numpy does not
    "#1", "#", "x", "1.2.3", "0x10", "1e", "--1", "", " ", "  ",
    "1\x0b", "\xa01.5", "2　", "1\x0b2", "　3",
]


def random_value(rng: random.Random) -> str:
    x = rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-12, 12)
    style = rng.random()
    if style < 0.3:
        return repr(x)
    if style < 0.55:
        return f"{x:.8g}"
    if style < 0.8:
        return f"{x:.17g}"
    if style < 0.94:
        return rng.choice(FINITE)
    if style < 0.97:
        return rng.choice(NON_FINITE)
    return rng.choice(RARE)


def random_file(rng: random.Random, kind: str) -> str:
    """One corpus file; ``kind`` is "vec" or "csv"."""
    sep = " " if kind == "vec" else ","
    n_rows, n_cols = rng.randint(2, 6), rng.randint(1, 4)
    names = ["alpha", "b", "#c", "déjà", "e1", "7", "nan", "x_y"]
    lines = []
    for i in range(n_rows):
        name = rng.choice(names) if rng.random() < 0.05 else f"{rng.choice(names)}{i}"
        cells = [random_value(rng) for _ in range(n_cols)]
        if kind == "csv" and rng.random() < 0.1:
            cells[rng.randrange(n_cols)] = ""  # empty cell
        if rng.random() < 0.03:
            cells.append(random_value(rng) if rng.random() < 0.5 else "")  # extra field
        elif rng.random() < 0.03 and len(cells) > 1:
            cells.pop()  # missing field
        lines.append(sep.join([name, *cells]))
    if rng.random() < 0.4:
        if kind == "vec":
            declared = n_rows if rng.random() < 0.8 else n_rows + 1
            dim = n_cols if rng.random() < 0.8 else n_cols + 1
            lines.insert(0, f"{declared} {dim}")
        else:
            lines.insert(0, ",".join(["entity", *(f"f{j}" for j in range(n_cols))]))
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        pos = rng.randrange(len(lines) + 1)
        edit = rng.randrange(7)
        if edit == 0:
            lines.insert(pos, "")  # blank line
        elif edit == 1:
            lines.insert(pos, rng.choice([" ", "\t", "  \t "]))  # whitespace-only line
        elif edit == 2 and lines:
            lines[pos % len(lines)] += sep  # trailing separator
        elif edit == 3 and lines:
            k = pos % len(lines)
            # a quote or Unicode whitespace in place of the first separator
            lines[k] = rng.choice(['"', "\x0b", "\xa0", "　"]).join(lines[k].split(sep, 1))
        elif edit == 4 and lines:
            k = pos % len(lines)
            lines[k] = ",".join(f'"{f}"' for f in lines[k].split(","))  # quoted fields
        elif edit == 5 and len(lines) > 1:
            lines.insert(pos, lines[pos % len(lines)])  # duplicate line
        elif edit == 6 and lines:
            k = pos % len(lines)
            cut = rng.randint(0, len(lines[k]))
            lines[k] = lines[k][:cut] + "\r" + lines[k][cut:]  # lone \r
    end = rng.choice(["\n", "\n", "\n", "\r\n", "\r", ""])
    body = end.join(lines)
    return body + end if rng.random() < 0.85 else body


def outcome(loader, path):
    try:
        result = loader(path)
    except eio.ValidationError as exc:
        return ("error", str(exc))
    if isinstance(result, eio.EmbeddingTable):
        return ("vec", result.dim, result.tokens(), [v.tobytes() for v in result.entries.values()])
    if isinstance(result, eio.DomainMatrix):
        return ("domain", result.entities, result.data.shape, result.data.tobytes())
    entities, values = result
    return ("returns", entities, values.shape, values.tobytes())


def both_paths(loader, path, monkeypatch):
    """The loader's outcome as it runs and with the bulk parse switched off,
    plus whether the first came from the bulk parse."""
    bulk_rows = eio._bulk_rows
    accepted = []

    def spy(lines, delimiter):
        rows = bulk_rows(lines, delimiter)
        accepted.append(rows is not None)
        return rows

    monkeypatch.setattr(eio, "_bulk_rows", spy)
    fast = outcome(loader, path)
    monkeypatch.setattr(eio, "_bulk_rows", lambda lines, delimiter: None)
    slow = outcome(loader, path)
    monkeypatch.setattr(eio, "_bulk_rows", bulk_rows)
    return fast, slow, any(accepted) and fast[0] != "error"


LOADERS = {
    "vec": [eio.load_embeddings],
    "csv": [eio.load_domain_csv, eio.load_returns_csv],
}


@pytest.mark.parametrize("kind", ["vec", "csv"])
def test_bulk_parse_matches_per_cell_loop(kind, tmp_path, monkeypatch):
    rng = random.Random(f"bulk-{kind}")
    path = tmp_path / f"case.{kind}"
    bulk_results = 0
    for _ in range(600):
        path.write_bytes(random_file(rng, kind).encode("utf-8"))
        for loader in LOADERS[kind]:
            fast, slow, from_bulk = both_paths(loader, path, monkeypatch)
            assert fast == slow, path.read_bytes()
            bulk_results += from_bulk
    # the corpus must exercise the bulk path, not only the loop
    assert bulk_results >= 100


def test_bulk_parse_of_benchmark_shaped_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(90)
    data = rng.normal(size=(40, 12)) * 10.0 ** rng.integers(-300, 300, size=(40, 12))
    data[3, 4], data[5, 6] = -0.0, 5e-324
    tokens = [f"w{i:03d}" for i in range(40)]
    (tmp_path / "v.vec").write_text(
        "40 12\n" + "".join(t + " " + " ".join(map(repr, row)) + "\n" for t, row in zip(tokens, data.tolist()))
    )
    (tmp_path / "d.csv").write_text(
        "entity," + ",".join(f"f{j}" for j in range(12)) + "\n"
        + "".join(t + "," + ",".join(f"{v:.17g}" for v in row) + "\n" for t, row in zip(tokens, data.tolist()))
    )
    (tmp_path / "r.csv").write_text(
        "".join(t + "," + ",".join("" if (i + j) % 7 == 0 else f"{v:.8g}" for j, v in enumerate(row)) + "\r\n"
                for i, (t, row) in enumerate(zip(tokens, data.tolist())))
    )
    for loader, name in [(eio.load_embeddings, "v.vec"), (eio.load_domain_csv, "d.csv"), (eio.load_returns_csv, "r.csv")]:
        fast, slow, from_bulk = both_paths(loader, tmp_path / name, monkeypatch)
        assert from_bulk and fast == slow


def test_numpy_float_reader_agrees_with_float():
    """Every string numpy's reader accepts parses to the same bits with float()."""
    rng = random.Random(91)
    alphabet = "0123456789.eE+-_ #xnaifyINFtA\x0b\xa0　١"
    strings = set(FINITE + NON_FINITE + RARE)
    strings.update(random_value(rng) for _ in range(1500))
    strings.update("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))) for _ in range(3000))
    read = 0
    for s in sorted(strings):
        if not s.strip():
            continue  # numpy skips the line and warns that there is no data
        for delimiter in (",", None):
            try:
                got = np.loadtxt([s], delimiter=delimiter, comments=None, encoding="utf-8", ndmin=1)
            except ValueError:
                continue
            if got.shape != (1,):
                continue  # split into several fields
            read += 1
            assert np.float64(float(s)).tobytes() == got[0].tobytes(), repr(s)
    assert read > 1500
