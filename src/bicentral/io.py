"""Text formats: matrix CSV, edge list, target vector, lookup-table TSV,
rating reports.

Weights may be written as decimals or as exact fractions ("4/3"), so
fixtures can carry values that would truncate in decimal. Reads drop a
leading byte-order mark and end lines at LF, CRLF and CR only; everything
written uses LF.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from bicentral import errors
from bicentral.centrality import RatingTable
from bicentral.core import (
    Diagnostic,
    NebsResult,
    NecsResult,
    ReverseTransform,
    WeightRelation,
)
from bicentral.spectral import FloatArray, _admit

REPORT_DIGITS = 12

#: Cells per block of rows whose weights go through one ``np.loadtxt`` call;
#: a block that call refuses is read cell by cell.
_BLOCK_CELLS = 1 << 14


def _parse_number(token: str, line: int, column: int) -> float:
    text = token.strip()
    if "/" in text:
        try:
            value = float(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise errors.ParseError(line, column, f"bad fraction {token!r}") from None
    else:
        try:
            value = float(text)
        except ValueError:
            raise errors.ParseError(line, column, f"bad number {token!r}") from None
    if not math.isfinite(value):
        raise errors.ParseError(line, column, f"non-finite value {token!r}")
    return value


def _lines(text: str) -> list[str]:
    """Lines of ``text``, ended at LF, CRLF and CR only; ``str.splitlines`` also
    ends them at \\v, \\f, \\x85, U+2028 and more, which a label or cell may hold.
    One leading U+FEFF, the UTF-8 byte-order mark, is dropped, so a file
    saved with one reads as that file without it; any other U+FEFF is kept."""
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]  # no line after the last end


def _parse_row(values: Sequence[str], lineno: int, width: int) -> list[float]:
    """Weights of one data row, cell by cell; raises on a cell count other
    than ``width``, then on the first bad cell."""
    if len(values) != width:
        raise errors.ParseError(
            lineno, len(values) + 2, f"expected {width} value cells, found {len(values)}"
        )
    parsed: list[float] = []
    for pos, cell in enumerate(values, start=2):
        if not cell.strip():
            parsed.append(0.0)
            continue
        value = _parse_number(cell, lineno, pos)
        if value < 0:
            raise errors.NegativeWeight(
                lineno, pos, f"negative weight {cell.strip()!r}"
            )
        parsed.append(value)
    return parsed


def _cells(values: Union[str, list[str]]) -> list[str]:
    return values.split(",") if isinstance(values, str) else values


def read_matrix_csv(text: str) -> WeightRelation:
    """Parse a labeled weight matrix.

    Layout: cell (1,1) is ignored, the rest of the first row names the
    columns (a-items), the first cell of every later row names that row
    (b-item), and the remaining cells are nonnegative weights. An empty cell
    is 0. Line numbers in errors are physical lines (a record whose quoted
    cell spans lines is numbered by its first line); column numbers are
    1-based cell positions.

    A document with no quote, no NUL and no line over the csv field size
    limit is split at the first comma of each line, and its weights are read
    in blocks of rows, each by one ``np.loadtxt`` call; a block that call
    cannot read (blank cells, fractions, any error) is read again, cell by
    cell, by :func:`_parse_row`. Any other document is read by
    ``csv.reader`` and its weights cell by cell. Only :func:`_parse_row`
    names a bad cell or a wrong cell count. The error raised is the first
    in line order: a bad label, a wrong cell count or an oversize cell is
    raised only once the rows before it have converted.
    """
    records, fault = _records(text)
    if not records:
        raise fault or errors.EmptyRelation(0, 0, "input contains no cells")

    header_line, _, header = records[0]
    a_labels = [cell.strip() for cell in _cells(header)]
    if not a_labels:
        raise errors.ParseError(header_line, 2, "header names no columns")
    for pos, label in enumerate(a_labels, start=2):
        if not label:
            raise errors.ParseError(header_line, pos, "empty column label")
    if len(set(a_labels)) != len(a_labels):
        raise errors.DuplicateLabel(header_line, 2, "duplicate column label")

    rows = records[1:]
    seen: set[str] = set()
    for k, (lineno, label, _) in enumerate(rows):
        if not label:
            fault = errors.ParseError(lineno, 1, "empty row label")
        elif label in seen:
            fault = errors.DuplicateLabel(lineno, 1, f"duplicate row label {label!r}")
        else:
            seen.add(label)
            continue
        rows = rows[:k]
        break
    if not rows:
        raise fault or errors.EmptyRelation(
            header_line, 1, "no data rows after the header"
        )
    relation = _convert(tuple(a_labels), rows)
    if fault:
        raise fault
    return relation


def _records(text: str) -> tuple[list, Optional[errors.ParseError]]:
    """Non-blank records of ``text`` as (first physical line, stripped label,
    weight cells: the text after the first comma of a split line, or the
    list of csv cells), and the csv error met after the last of them, if
    any."""
    lines = _lines(text)
    fault = None
    raw = []
    # Without quotes, ``line.split(",")`` gives exactly the cells csv gives
    # for each line. csv before Python 3.11 rejects NUL, and csv alone names
    # a cell over the limit, which only a line over it can hold.
    if (
        '"' not in text
        and "\x00" not in text
        and max(map(len, lines), default=0) <= csv.field_size_limit()
    ):
        for lineno, line in enumerate(lines, start=1):
            label, comma, rest = line.partition(",")
            raw.append((lineno, label, rest if comma else []))
    else:
        # Every line reaches csv ending in "\n", so a quoted cell that spans
        # lines keeps a line break.
        reader = csv.reader(line + "\n" for line in lines)
        lineno = 1
        try:
            for cells in reader:
                raw.append((lineno, "".join(cells[:1]), cells[1:]))
                lineno = reader.line_num + 1
        except csv.Error as exc:
            fault = errors.ParseError(reader.line_num, 0, str(exc))
    # A record is blank when every cell strips to empty.
    records = [
        (lineno, label.strip(), weights)
        for lineno, label, weights in raw
        if label.strip() or "".join(_cells(weights)).strip()
    ]
    return records, fault


def _convert(a_labels: tuple[str, ...], rows: list) -> WeightRelation:
    """Relation of ``rows``, whose labels are valid. The weights are read by
    :func:`_block` in blocks of about _BLOCK_CELLS cells, so a blank cell, a
    fraction or an error costs the cell reader one block."""
    linenos, b_labels, texts = zip(*rows)
    width = len(a_labels)
    W = np.empty((len(rows), width))
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        W[block] = _block(linenos[block], texts[block], width)
    return WeightRelation(a_labels=a_labels, b_labels=b_labels, weights=W)


def _block(
    linenos: Sequence[int], texts: Sequence, width: int
) -> Union[FloatArray, list[list[float]]]:
    """Weights of consecutive rows. Split-line texts go through one
    ``np.loadtxt`` call; csv cells, and every row when that call raises,
    returns the wrong shape or reads a negative or non-finite value, are
    read cell by cell by :func:`_parse_row`, to read blank cells and
    fractions or to name the first error in line order.
    numpy's reader strips the same whitespace, rejects non-ASCII text and
    converts with ``PyOS_string_to_double``, the correctly rounded routine
    ``float`` uses, so every value it accepts is the double ``_parse_row``
    gives."""
    # loadtxt skips an empty line, so a row of one empty cell goes cell by cell.
    if all(isinstance(weights, str) and weights for weights in texts):
        try:
            W = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2, max_rows=len(texts))
            if W.shape == (len(texts), width):
                _admit(W)
                return W
        except ValueError:
            pass
    return [
        _parse_row(_cells(weights), lineno, width)
        for lineno, weights in zip(linenos, texts)
    ]


def read_edge_list(text: str) -> WeightRelation:
    """Parse tab-separated edges: a_label, b_label, positive weight.

    Labels are collected in first-appearance order; pairs never listed get
    weight 0. A repeated pair is an error, as is a nonpositive weight
    (listing an edge asserts the pair is related).
    """
    cells: dict[tuple[int, int], float] = {}
    a_index: dict[str, int] = {}
    b_index: dict[str, int] = {}
    for lineno, (a_field, b_field, w_field) in _tab_rows(text, 3):
        a_label, b_label = a_field.strip(), b_field.strip()
        if not a_label or not b_label:
            raise errors.ParseError(lineno, 1, "empty label")
        weight = _parse_number(w_field, lineno, 3)
        if weight <= 0:
            raise errors.NonPositiveWeight(
                lineno, 3, f"edge weight must be positive, got {w_field.strip()!r}"
            )
        i = b_index.setdefault(b_label, len(b_index))
        j = a_index.setdefault(a_label, len(a_index))
        if (i, j) in cells:
            pair = (a_label, b_label)
            raise errors.DuplicateEdge(lineno, 1, f"duplicate edge {pair!r}")
        cells[i, j] = weight

    if not cells:
        raise errors.EmptyRelation(0, 0, "edge list contains no edges")

    weights = np.zeros((len(b_index), len(a_index)), dtype=np.float64)
    weights[tuple(zip(*cells))] = list(cells.values())
    return WeightRelation(
        a_labels=tuple(a_index), b_labels=tuple(b_index), weights=weights
    )


def _tab_rows(text: str, fields: int) -> Iterator[tuple[int, list[str]]]:
    """Non-blank lines of ``text`` split at tabs, each with its line number;
    ParseError on a line without exactly ``fields`` fields."""
    for lineno, raw in enumerate(_lines(text), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != fields:
            raise errors.ParseError(
                lineno, 1, f"expected {fields} tab-separated fields, found {len(parts)}"
            )
        yield lineno, parts


def read_target(text: str) -> FloatArray:
    """Target rating for ``construct-reverse``: one value per line, decimals
    or p/q fractions, in column order."""
    values: list[float] = []
    for lineno, line in enumerate(_lines(text), start=1):
        token = line.strip()
        if token:
            values.append(_parse_number(token, lineno, 1))
    if not values:
        raise errors.ParseError(0, 0, "target file contains no values")
    return np.asarray(values, dtype=np.float64)


#: Format spec of every number a report writes.
_DIGITS_SPEC = f".{REPORT_DIGITS}g"


def _significant(x: Optional[float]) -> Optional[float]:
    """The one path from a report scalar to JSON: ``None`` for ``None`` and
    for a value that is not finite, which JSON cannot carry, else the double
    of ``x`` at REPORT_DIGITS significant digits."""
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:{_DIGITS_SPEC}}")


def diagnostic_payload(warnings: Iterable[Diagnostic]) -> list[dict]:
    """Structured warnings as plain ``{code, message, side}`` dicts."""
    return [{"code": w.code, "message": w.message, "side": w.side} for w in warnings]


#: How JSON and the TSV tables write a tie flag.
_BOOL_TEXT = {True: "true", False: "false"}


def write_tables_tsv(tables: Mapping[str, RatingTable]) -> str:
    """Ranked tables as TSV, one row per entry, LF line endings; ValueError
    when a label holds a tab, CR or LF, which would break its row, or when
    a score is not finite."""
    lines = ["side\tlabel\tscore\trank\ttied"]
    for side, table in tables.items():
        for label in table.label_order:
            if "\t" in label or "\n" in label or "\r" in label:
                raise ValueError(f"{side} label {label!r} would break its TSV row")
        lines.extend(
            f"{side}\t{label}\t{score}\t{rank}\t{_BOOL_TEXT[tied]}"
            for label, score, rank, tied in zip(
                table.label_order,
                _score_texts(side, table.scores),
                table.ranks.tolist(),
                table.tied.tolist(),
            )
        )
    return "\n".join(lines) + "\n"


def _score_texts(side: str, scores: FloatArray) -> list[str]:
    """Each score at REPORT_DIGITS significant digits, as ``%g`` writes it.
    This is also the TSV text of the rounded score, which prints back the
    same at REPORT_DIGITS. ValueError naming ``side`` when a score is not
    finite, which neither JSON nor a TSV reader takes back."""
    if not np.isfinite(scores).all():
        raise ValueError(f"{side} scores hold a value that is not finite")
    return [f"{x:{_DIGITS_SPEC}}" for x in scores.tolist()]


def _table_json(side: str, table: RatingTable) -> str:
    """One rating table as the text ``json.dumps(..., indent=2)`` writes for
    its list of ``{label, score, rank, tied}`` objects one level deep."""
    if not table.label_order:
        return "[]"
    quote = json.encoder.encode_basestring_ascii
    # json writes a score as repr(_significant(score)). A %g text with a
    # fraction and no exponent is that repr already: it rounds to a normal
    # double that no shorter decimal reaches, and repr is positional from
    # 1e-4 up to 1e16 too. Integral and exponent texts differ.
    scores = [
        text if "." in text and "e" not in text
        else json.dumps(float(text), allow_nan=False)
        for text in _score_texts(side, table.scores)
    ]
    entries = [
        f'    {{\n      "label": {quote(label)},\n      "score": {score},\n'
        f'      "rank": {rank},\n      "tied": {_BOOL_TEXT[tied]}\n    }}'
        for label, score, rank, tied in zip(
            table.label_order, scores, table.ranks.tolist(), table.tied.tolist()
        )
    ]
    return "[\n" + ",\n".join(entries) + "\n  ]"


def _write_json(tables: Mapping[str, RatingTable], scalars: dict) -> str:
    """Report text byte-identical to ``json.dumps(payload, indent=2) + "\\n"``
    for a payload of the rating tables (each a list of entry objects)
    followed by ``scalars``. The tables are written directly, because
    ``indent`` sends ``json.dumps`` to its pure-Python encoder; the scalars,
    a few keys, still go through it."""
    members = [
        f"  {json.encoder.encode_basestring_ascii(key)}: {_table_json(key, table)}"
        for key, table in tables.items()
    ]
    if scalars:
        # Strip the braces; its members sit at the same depth as the tables'.
        members.append(json.dumps(scalars, indent=2, allow_nan=False)[2:-2])
    return "{\n" + ",\n".join(members) + "\n}\n"


def write_report(
    result: Union[NebsResult, NecsResult],
    tables: Mapping[str, RatingTable],
    fmt: str = "json",
) -> str:
    """Serialize a solver result plus its ranked tables.

    JSON carries the scalars, the convergence summary, and structured
    warnings; TSV carries only the ranked tables. Scores and scalars are
    rounded to 12 significant digits so output is byte-deterministic. A
    scalar that is not finite is written as ``null``; a score that is not
    finite raises ValueError.
    """
    if fmt not in ("json", "tsv"):
        raise ValueError(f"unknown format {fmt!r}")

    if isinstance(result, NebsResult):
        expected = ("a", "b")
        values = {
            "lambda": result.lambda_,
            "mu": result.mu,
            "rho": result.rho,
            "alpha": result.alpha,
            "beta": result.beta,
        }
        warnings = diagnostic_payload(result.warnings)
    else:
        expected = ("c",)
        values = {"eigenvalue": result.eigenvalue, "lambda": result.rating_coefficient}
        warnings = []
    for key in expected:
        if key not in tables:
            raise errors.DimensionMismatch(f"missing rating table {key!r}")
    ordered = {key: tables[key] for key in expected}

    if fmt == "tsv":
        return write_tables_tsv(ordered)

    report = result.convergence
    scalars = {key: _significant(value) for key, value in values.items()}
    scalars.update(
        {
            "iterations": report.iterations,
            "final_residual": _significant(report.final_residual),
            "rate_estimate": _significant(report.rate_estimate),
            "warnings": warnings,
        }
    )
    return _write_json(ordered, scalars)


def write_matrix_csv(
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    weights: FloatArray,
) -> str:
    """Labeled matrix as CSV that :func:`read_matrix_csv` reads back to the
    same labels and weights.

    Values use shortest round-trip formatting, so read-back is bit exact.
    ValueError for an axis with no labels, and, naming the axis and the
    label, for a label the reader would refuse or change: one that is
    empty, has leading or trailing whitespace (which the reader strips),
    repeats another on its axis, holds a CR (which the writer leaves
    unquoted and the reader takes for a line break) or a NUL (which csv
    before Python 3.11 refuses), or is longer than the csv field size
    limit, which the reader enforces.
    """
    W = np.asarray(weights, dtype=np.float64)
    if W.shape != (len(b_labels), len(a_labels)):
        raise errors.DimensionMismatch(
            f"matrix shape {W.shape} does not match label counts"
        )
    for axis, labels in (("a", a_labels), ("b", b_labels)):
        if not labels:
            raise ValueError(f"{axis} axis has no labels and would not read back")
        seen: set[str] = set()
        for label in labels:
            if not label:
                fault = "is empty"
            elif label != label.strip():
                fault = "has leading or trailing whitespace"
            elif label in seen:
                fault = "repeats another on its axis"
            elif "\r" in label:
                fault = "holds a CR"
            elif "\x00" in label:
                fault = "holds a NUL"
            elif len(label) > csv.field_size_limit():
                fault = "is longer than the csv field size limit"
            else:
                seen.add(label)
                continue
            raise ValueError(f"{axis} label {label!r} {fault} and would not read back")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(a_labels))
    for i, label in enumerate(b_labels):
        writer.writerow([label] + [repr(float(v)) for v in W[i]])
    return out.getvalue()


def write_transform_table(transform: ReverseTransform) -> str:
    """Lookup transform as two-column TSV: weight, reverse weight."""
    if transform.table is None:
        raise ValueError("only table transforms can be written as a table")
    lines = [
        f"{repr(weight)}\t{repr(value)}"
        for weight, value in sorted(transform.table.items())
    ]
    return "\n".join(lines) + "\n"


def read_transform_table(text: str) -> ReverseTransform:
    """Parse the TSV written by :func:`write_transform_table`."""
    mapping: dict[float, float] = {}
    for lineno, parts in _tab_rows(text, 2):
        weight = _parse_number(parts[0], lineno, 1)
        value = _parse_number(parts[1], lineno, 2)
        if weight in mapping:
            raise errors.ParseError(lineno, 1, f"duplicate weight {weight!r}")
        mapping[weight] = value
    if not mapping:
        raise errors.EmptyRelation(0, 0, "transform table contains no entries")
    return ReverseTransform.from_table(mapping)
