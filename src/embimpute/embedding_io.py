"""Text-format embedding tables, entity alignment, and CSV ingestion.

Every loader reads its file in one go and decodes it as UTF-8. The value
files (``.vec`` and entity CSVs) are then parsed in bulk by ``np.loadtxt``,
numpy's C tokenizer and float reader, which yields the bits ``float()``
would. The per-cell loop reads the same text only when the bulk parse
refuses it: CSV quoting, NUL or a lone ``\r`` (csv-module syntax), a field
numpy's float reader rejects (``1_0``, non-ASCII digits, an empty or
malformed value), a blank or whitespace-only line, or a file that fails a
check (field count, empty or duplicate identifier, non-finite vector,
header row count). The loop then either accepts the rare syntax or raises
the ``path:line:`` message that names the fault.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

from .domain_geometry import DomainMatrix, _off_heap
from .errors import ValidationError, _check_integer


@dataclass(frozen=True)
class EmbeddingTable:
    """Ordered token -> vector map with a fixed dimension.

    Tokens must be non-empty strings and ``dim`` an integer >= 1, stored
    as an int. Arrays are not defensively copied; in-place writes to them
    or to ``entries`` are not checked again.
    """

    dim: int
    entries: dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_integer(self.dim, "embedding dimension", 1))
        converted: dict[str, np.ndarray] = {}
        for token, vec in self.entries.items():
            if not isinstance(token, str) or not token:
                raise ValidationError(f"embedding token must be a non-empty string, got {token!r}")
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (self.dim,):
                raise ValidationError(
                    f"token '{token}' has a vector of shape {vec.shape}, expected ({self.dim},)"
                )
            converted[token] = vec
        object.__setattr__(self, "entries", converted)

    def __len__(self) -> int:
        return len(self.entries)

    def tokens(self) -> list[str]:
        return list(self.entries)


@dataclass(frozen=True)
class AlignedProblem:
    """Domain rows reordered with the known block first, plus its vectors.

    ``permutation[i]`` is the position in the original domain matrix of the
    entity now at position i. The entity order and the block sizes are
    read from ``domain`` and ``known``: ``order`` is ``domain.entities``,
    ``p`` is ``len(known)`` and ``q`` is ``domain.n - p``.
    """

    domain: DomainMatrix
    known: np.ndarray
    permutation: np.ndarray

    @property
    def order(self) -> tuple[str, ...]:
        return self.domain.entities

    @property
    def p(self) -> int:
        return len(self.known)

    @property
    def q(self) -> int:
        return self.domain.n - self.p


def _parses_as_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # a leading byte-order mark, as spreadsheet programs write one, is
        # not text; dropped after decoding, so an error names the byte in
        # the file
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _bulk_rows(lines: list[str], delimiter):
    """First field of every line as a string and the rest as a float64
    matrix, or None if numpy's reader refuses a line or skips one."""
    if not lines or not lines[0].strip():
        return None  # numpy warns when no line holds data
    keys: list[str] = []
    try:
        table = np.loadtxt(
            lines,
            delimiter=delimiter,
            comments=None,
            converters={0: lambda field: keys.append(field.strip()) or 0.0},
            ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        return None
    if len(keys) != len(lines):
        return None  # a blank or whitespace-only line was skipped
    return keys, np.ascontiguousarray(table[:, 1:])


def load_embeddings(path) -> EmbeddingTable:
    """Parse a text embedding file: optional ``m s`` header, then
    ``token v1 ... vs`` lines. Dimensions must be consistent throughout."""
    text = _read_text(path)
    if not text:
        raise ValidationError(f"{path}: empty embedding file")
    if "\r" in text:  # universal newlines, as in text-mode reading
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = _lines(text)
    parts = lines[0].split()
    dim: int | None = None
    declared_rows: int | None = None
    data_start = 1
    if len(parts) == 2 and _parses_as_int(parts[0]) and _parses_as_int(parts[1]):
        declared_rows, dim = int(parts[0]), int(parts[1])
        if declared_rows < 0 or dim < 1:
            raise ValidationError(f"{path}:1: invalid header '{lines[0].strip()}'")
        lines, data_start = lines[1:], 2

    rows = _bulk_rows(lines, None)
    if rows is not None:
        tokens, values = rows
        entries = dict(zip(tokens, values))
        if (
            values.shape[1] > 0
            and dim in (None, values.shape[1])
            and declared_rows in (None, len(tokens))
            and len(entries) == len(tokens)
            and np.isfinite(values).all()
        ):
            return EmbeddingTable(values.shape[1], entries)

    entries = {}
    for lineno, line in enumerate(lines, start=data_start):
        parts = line.split()
        if not parts:
            raise ValidationError(f"{path}:{lineno}: blank line in embedding file")
        token, raw = parts[0], parts[1:]
        if dim is None:
            dim = len(raw)
            if dim == 0:
                raise ValidationError(f"{path}:{lineno}: no values after token")
        if len(raw) != dim:
            raise ValidationError(
                f"{path}:{lineno}: expected {dim} values, found {len(raw)}"
            )
        try:
            vec = np.array([float(v) for v in raw])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: malformed float value") from None
        if not np.isfinite(vec).all():
            raise ValidationError(f"{path}:{lineno}: non-finite embedding value")
        if token in entries:
            raise ValidationError(f"{path}:{lineno}: duplicate token '{token}'")
        entries[token] = vec

    if declared_rows is not None and declared_rows != len(entries):
        raise ValidationError(
            f"{path}: header declares {declared_rows} rows, found {len(entries)}"
        )
    return EmbeddingTable(dim, entries)


def _check_serializable(tokens) -> None:
    """Raise unless every token can be the first field of a ``.vec`` line."""
    for token in tokens:
        if len(token.split()) != 1 or token != token.strip():
            raise ValidationError(f"token {token!r} contains whitespace and cannot be serialized")


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write header plus one line per token at full round-trip precision."""
    _check_serializable(table.entries)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.entries)} {table.dim}\n")
        # one % operation per line; it gives the bytes of f"{v:.17g}"
        line = "%s " + " ".join(["%.17g"] * table.dim) + "\n"
        for token, vec in table.entries.items():
            fh.write(line % (token, *vec.tolist()))


def align(domain: DomainMatrix, table: EmbeddingTable) -> AlignedProblem:
    """Stable-partition domain entities into (known, missing).

    Entities with a vector in the table come first, preserving relative
    order within each part, so the diffusion can treat the leading block as
    anchors. Requires at least one known entity.
    """
    present = [i for i, e in enumerate(domain.entities) if e in table.entries]
    absent = [i for i, e in enumerate(domain.entities) if e not in table.entries]
    if not present:
        raise ValidationError(
            "no anchors: none of the domain entities has a known embedding"
        )
    permutation = np.array(present + absent, dtype=np.int64)
    order = tuple(domain.entities[i] for i in permutation)
    # off the heap, so that where earlier calls left free heap does not
    # decide the peak resident size; every index is in range, and "clip"
    # writes straight into it where "raise" would buffer a second copy
    rows = _off_heap(domain.data.shape, float)
    np.take(domain.data, permutation, axis=0, out=rows, mode="clip")
    known = np.array([table.entries[tok] for tok in order[: len(present)]])
    return AlignedProblem(DomainMatrix(order, rows), known, permutation)


def merge_imputed(table: EmbeddingTable, problem: AlignedProblem, result) -> EmbeddingTable:
    """Original table plus the newly imputed tokens; existing entries pass
    through untouched."""
    Y = np.asarray(result.Y)
    if Y.shape != (problem.p + problem.q, table.dim):
        raise ValidationError(
            f"result matrix has shape {Y.shape}, expected ({problem.p + problem.q}, {table.dim})"
        )
    entries = dict(table.entries)
    for offset, token in enumerate(problem.order[problem.p :]):
        if token in entries:
            raise ValidationError(f"imputed token '{token}' already present in table")
        entries[token] = Y[problem.p + offset].copy()
    return EmbeddingTable(table.dim, entries)


# the comma before an exactly-empty CSV cell
_EMPTY_CELL = re.compile(r",(?=[,\r\n]|\Z)")


def _is_header(fields: list[str]) -> bool:
    """A CSV header row has a non-empty, non-numeric second field."""
    second = fields[1].strip()
    if not second:
        return False
    try:
        float(second)
    except ValueError:
        return True
    return False


def _csv_rows(path, text: str) -> list[tuple[int, list[str]]]:
    """Non-empty CSV records, each with the file line it ends on; a fault
    the csv module raises becomes a ``path:line:`` error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


def _read_entity_csv(path, allow_missing: bool):
    text = _read_text(path)
    first, _, rest = text.partition("\n")
    first = first.removesuffix("\r")
    fields = first.split(",")
    # quoting, NUL and a lone \r follow the csv module's rules; below the
    # first line numpy reads \r\n as csv does and refuses a lone \r
    if len(fields) >= 2 and '"' not in text and "\x00" not in text and "\r" not in first:
        body = rest if _is_header(fields) else text
        if allow_missing:
            body = _EMPTY_CELL.sub(",nan", body)
        rows = _bulk_rows(_lines(body), ",")
        if rows is not None:
            entities, values = rows
            if "" not in entities and len(set(entities)) == len(entities):
                return entities, values

    rows = _csv_rows(path, text)
    if not rows:
        raise ValidationError(f"{path}: empty CSV file")
    start = 0
    first = rows[0][1]
    if len(first) < 2:
        raise ValidationError(f"{path}: need an identifier plus at least one value column")
    if _is_header(first):
        start = 1
        if len(rows) == 1:
            raise ValidationError(f"{path}: no data rows after header")

    width = len(rows[start][1])
    entities: list[str] = []
    seen: set[str] = set()
    values: list[list[float]] = []
    for rowno, row in rows[start:]:
        if len(row) != width:
            raise ValidationError(
                f"{path}:{rowno}: expected {width} fields, found {len(row)}"
            )
        entity = row[0].strip()
        if not entity:
            raise ValidationError(f"{path}:{rowno}: empty entity identifier")
        parsed = []
        for col, cell in enumerate(row[1:], start=2):
            cell = cell.strip()
            if not cell:
                if allow_missing:
                    parsed.append(float("nan"))
                    continue
                raise ValidationError(f"{path}:{rowno}: empty cell in column {col}")
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}:{rowno}: malformed float in column {col}"
                ) from None
        if entity in seen:
            raise ValidationError(f"{path}:{rowno}: duplicate entity '{entity}'")
        seen.add(entity)
        entities.append(entity)
        values.append(parsed)
    return entities, np.array(values, dtype=float)


def load_domain_csv(path) -> DomainMatrix:
    """Domain matrix CSV: identifier column then float columns; a header
    row is auto-detected from a non-numeric second field."""
    entities, values = _read_entity_csv(path, allow_missing=False)
    return DomainMatrix(entities, values)


def load_returns_csv(path) -> tuple[list[str], np.ndarray]:
    """Returns CSV in the same shape; empty cells become NaN."""
    return _read_entity_csv(path, allow_missing=True)


def load_labels_csv(path) -> dict[str, str]:
    """Label CSV with an ``entity,label`` header row."""
    rows = _csv_rows(path, _read_text(path))
    if len(rows) < 2:
        raise ValidationError(f"{path}: expected a header row plus data rows")
    labels: dict[str, str] = {}
    for rowno, row in rows[1:]:
        if len(row) != 2:
            raise ValidationError(f"{path}:{rowno}: expected 'entity,label'")
        entity, label = row[0].strip(), row[1].strip()
        if not entity or not label:
            raise ValidationError(f"{path}:{rowno}: empty entity or label")
        if entity in labels:
            raise ValidationError(f"{path}:{rowno}: duplicate entity '{entity}'")
        labels[entity] = label
    return labels
