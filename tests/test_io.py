import csv
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicentral.io
from bicentral import (
    ConvergenceReport,
    Diagnostic,
    NebsResult,
    NecsResult,
    ReverseTransform,
    compute_nebs,
    compute_necs,
    errors,
    rank,
    read_edge_list,
    read_matrix_csv,
    read_transform_table,
    write_matrix_csv,
    write_report,
    write_transform_table,
)
from bicentral.io import read_target, write_tables_tsv
from tests import reference


class TestReadMatrixCsv:
    def test_worked_example_fixture(self, fixtures_dir, ex51):
        text = (fixtures_dir / "ex51.csv").read_text()
        assert read_matrix_csv(text) == ex51

    def test_single_cell(self):
        rel = read_matrix_csv(",a1\nb1,5\n")
        assert rel.a_labels == ("a1",)
        assert rel.b_labels == ("b1",)
        assert rel.weights[0, 0] == 5.0

    def test_negative_cell(self):
        with pytest.raises(errors.NegativeWeight) as info:
            read_matrix_csv(",a1,a2\nb1,2,-1\n")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_empty_cell_is_zero(self):
        rel = read_matrix_csv(",a1,a2\nb1,,3\n")
        np.testing.assert_array_equal(rel.weights, [[0.0, 3.0]])

    def test_fraction_cells_are_exact(self):
        rel = read_matrix_csv(",a1\nb1,4/3\n")
        assert rel.weights[0, 0] == float(Fraction(4, 3))

    def test_crlf_tolerated(self):
        rel = read_matrix_csv(",a1\r\nb1,2\r\n")
        assert rel.weights[0, 0] == 2.0

    def test_header_with_no_comma_names_no_columns(self):
        with pytest.raises(errors.ParseError) as info:
            read_matrix_csv("a1\nb1,2\n")
        got = info.value
        assert (got.line, got.column, got.reason) == (1, 2, "header names no columns")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", errors.EmptyRelation),
            (",a1\n", errors.EmptyRelation),
            (",a1,a1\nb1,1,2\n", errors.DuplicateLabel),
            (",a1\nb1,1\nb1,2\n", errors.DuplicateLabel),
            (",a1,a2\nb1,1\n", errors.ParseError),
            (",a1\nb1,zebra\n", errors.ParseError),
            (",a1\n,1\n", errors.ParseError),
        ],
    )
    def test_malformed_inputs(self, text, expected):
        with pytest.raises(expected):
            read_matrix_csv(text)


# Tokens that exercise every branch of the number parser. The plain ones
# are accepted by numpy's reader and by ``float`` alike, so a quote-free
# grid of them is read in bulk. The other good ones (quoted cells,
# fractions, blanks, underscores, non-ASCII digits) send the document to
# the streamed reader, as do negatives, non-finite spellings, overflow,
# garbage, NUL and quoted commas.
_PLAIN_TOKENS = (
    "2",
    "0.5",
    "3.25",
    "1e3",
    "2.5E-4",
    "0",
    " 7 ",
    "\t3",
    "-0",
    "-0.0",
    "+1.5",
    "1E5",
    ".5",
    "5.",
    "1e-400",
    "\xa01",
)
_GOOD_TOKENS = _PLAIN_TOKENS + (
    '"2"',
    "4/3",
    " 1/2 ",
    "",
    "  ",
    "1_000",
    "\u0661\u0662",
)
_BAD_TOKENS = (
    "1/0",
    "-1",
    "nan",
    "inf",
    "-inf",
    "Infinity",
    "1e400",
    "zebra",
    "1..2",
    "1\x00",
    '"1,5"',
)
_plain = st.sampled_from(_PLAIN_TOKENS)
_good = st.sampled_from(_GOOD_TOKENS)
_any = st.sampled_from(_GOOD_TOKENS + _BAD_TOKENS)
_odd_labels = st.sampled_from(("x1", " x1 ", "", "  ", '"x,5"', "x\x0b5", "x\u20285"))
_blank_lines = st.sampled_from(("", "  ", " , ", " ,\t, ", "\t"))


def _outcome(reader, text):
    """What a reader makes of ``text``, with weights as raw bytes."""
    try:
        rel = reader(text)
    except errors.ParseError as exc:
        return type(exc), exc.line, exc.column, exc.reason
    return rel.a_labels, rel.b_labels, rel.weights.shape, rel.weights.tobytes()


@st.composite
def _documents(draw, line_strategy):
    """Lines from ``line_strategy`` with blank lines mixed in, joined by LF,
    CRLF or CR, with or without a final line ending."""
    lines = []
    for line in draw(line_strategy):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_blank_lines))
        lines.append(line)
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join(lines) + draw(st.sampled_from(("", end)))


@st.composite
def _matrix_lines(draw, plain=None):
    """Header and data lines of a grid. A plain grid (a third of them when
    ``plain`` is None) is quote-free and valid; the others mix in odd
    labels, wrong cell counts and every kind of token."""
    if plain is None:
        plain = draw(st.integers(0, 2)) == 0
    n = draw(st.integers(1, 3))
    columns = [f"a{j}" for j in range(n)]
    if not plain and draw(st.integers(0, 3)) == 0:
        columns = draw(st.lists(_odd_labels, min_size=n, max_size=n))
    lines = [",".join([draw(st.sampled_from(("", "corner")))] + columns)]
    for i in range(draw(st.integers(1 if plain else 0, 4))):
        if plain:
            cells = draw(st.lists(_plain, min_size=n, max_size=n))
            lines.append(",".join([f"b{i}"] + cells))
            continue
        label = f"b{i}" if draw(st.integers(0, 5)) else draw(_odd_labels)
        width = n if draw(st.integers(0, 7)) else draw(st.sampled_from((n - 1, n + 1)))
        tokens = _good if draw(st.integers(0, 3)) else _any
        cells = draw(st.lists(tokens, min_size=width, max_size=width))
        lines.append(",".join([label] + cells))
    return lines


@st.composite
def _edge_lines(draw):
    def label(prefix):
        return draw(st.sampled_from((f"{prefix}0", f"{prefix}1", f"{prefix}2")))

    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [label("a"), label("b"), draw(_good if draw(st.booleans()) else _any)]
        if draw(st.integers(0, 7)) == 0:
            fields[draw(st.integers(0, 1))] = draw(_odd_labels)
        if draw(st.integers(0, 7)) == 0:
            fields = fields[:2] if draw(st.booleans()) else fields + ["extra"]
        lines.append("\t".join(fields))
    return lines


def _fail(*args, **kwargs):
    raise AssertionError("must not be called")


def _outcome_in_bulk(patch, text):
    """:func:`_outcome` of ``read_matrix_csv``, asserting that every weight
    went through one ``np.loadtxt`` call and none through the cell reader."""
    calls = []
    real_loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return real_loadtxt(*args, **kwargs)

    patch.setattr(bicentral.io.np, "loadtxt", spy)
    patch.setattr(bicentral.io, "_parse_row", _fail)
    outcome = _outcome(read_matrix_csv, text)
    assert len(calls) == 1
    return outcome


def _quote_cells(text, which):
    """``text`` with every label quoted, or every cell when ``which`` is
    "all"; the cells hold no quote of their own."""
    end = "\r\n" if "\r\n" in text else "\r" if "\r" in text else "\n"
    lines = text.split(end)
    header = next(k for k, line in enumerate(lines) if line.strip(" ,\t"))
    return end.join(
        ",".join(
            f'"{cell}"' if which == "all" or k == header or pos == 0 else cell
            for pos, cell in enumerate(line.split(","))
        )
        for k, line in enumerate(lines)
    )


class TestReadersMatchReference:
    """The package's readers agree with the cell-by-cell reference readers:
    same relation bit for bit, or the same error class, line, column and
    message."""

    @settings(max_examples=300, deadline=None)
    @given(text=_documents(_matrix_lines()))
    def test_matrix_csv(self, text):
        assert _outcome(read_matrix_csv, text) == _outcome(
            reference.read_matrix_csv, text
        )

    @settings(max_examples=100, deadline=None)
    @given(text=_documents(_matrix_lines(plain=True)))
    def test_plain_grids_are_read_in_bulk(self, text):
        with pytest.MonkeyPatch.context() as patch:
            assert _outcome_in_bulk(patch, text) == _outcome(
                reference.read_matrix_csv, text
            )

    @settings(max_examples=100, deadline=None)
    @given(text=_documents(_matrix_lines(plain=True)), data=st.data())
    def test_quoted_grids_match_the_plain_reading(self, text, data):
        # Quote every label, or every cell; csv gives back the same cells.
        quoted = _quote_cells(text, data.draw(st.sampled_from(("labels", "all"))))
        assert _outcome(read_matrix_csv, quoted) == _outcome(
            reference.read_matrix_csv, text
        )

    def test_quoted_labels_give_the_same_relation(self):
        # A generated 300x200 matrix: split at commas when plain, read by csv
        # when its labels are quoted, the same relation bit for bit.
        rng = np.random.default_rng(7)
        weights = rng.choice([0.0, 1.0, 2.5], size=(300, 200)) * rng.random((300, 200))
        plain = write_matrix_csv(
            [f"a{j}" for j in range(200)], [f"b{i}" for i in range(300)], weights
        )
        assert '"' not in plain
        quoted = _quote_cells(plain, "labels")
        assert quoted.startswith('"","a0","a1",')
        rel = read_matrix_csv(quoted)
        assert rel == read_matrix_csv(plain)
        np.testing.assert_array_equal(rel.weights, weights)

    @settings(max_examples=100, deadline=None)
    @given(text=_documents(_matrix_lines(plain=True)))
    def test_wide_grids_match_reference(self, text):
        # No cell of a plain grid is longer than 6 characters, so with a
        # limit of 8 a line may exceed it, and go to csv, while no cell does.
        old = csv.field_size_limit(8)
        try:
            assert _outcome(read_matrix_csv, text) == _outcome(
                reference.read_matrix_csv, text
            )
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=300, deadline=None)
    @given(text=_documents(_edge_lines()))
    def test_edge_list(self, text):
        assert _outcome(read_edge_list, text) == _outcome(
            reference.read_edge_list, text
        )

    @pytest.mark.parametrize(
        "text,line,column,reason",
        [
            (",a1,a2\nb1,-1,zebra\n", 2, 2, "negative weight '-1'"),
            (",a1,a2\nb1,2,-0.5\nb2,zebra,1\n", 2, 3, "negative weight '-0.5'"),
            (",a1,a2\nb1, 1e400 ,2\n", 2, 2, "non-finite value ' 1e400 '"),
            (",a1,a2\nb1,,1/0\n", 2, 3, "bad fraction '1/0'"),
            (",a1\nb1,1\nb2,nan\nb1,1\n", 3, 2, "non-finite value 'nan'"),
        ],
    )
    def test_first_bad_cell_in_line_order(self, text, line, column, reason):
        with pytest.raises(errors.ParseError) as info:
            read_matrix_csv(text)
        assert (info.value.line, info.value.column, info.value.reason) == (
            line,
            column,
            reason,
        )

    @pytest.mark.parametrize(
        "text,line,column,reason",
        [
            (',a1,a2\n"b\n1",1,2\nb2,zebra,1\n', 4, 2, "bad number 'zebra'"),
            (',a1\n"\n"\nb1,x\n', 4, 2, "bad number 'x'"),
            (',a1,a2\nb1,"1\n2",3\nb2,zebra,1\n', 2, 2, "bad number '1\\n2'"),
            (',a1,a2\r\nb1,"1\r\n2",3\r\n', 2, 2, "bad number '1\\n2'"),
        ],
    )
    def test_quoted_line_breaks_keep_physical_lines(self, text, line, column, reason):
        # A quoted cell keeps a line break, "\n" whatever the document used
        # (it used to read "1\n2" as 12), and errors name the physical line
        # a record starts on.
        with pytest.raises(errors.ParseError) as info:
            read_matrix_csv(text)
        assert (info.value.line, info.value.column, info.value.reason) == (
            line,
            column,
            reason,
        )

    def test_quoted_label_may_span_lines(self):
        rel = read_matrix_csv(',a1\n"b\n1",2\n')
        assert rel.b_labels == ("b\n1",)
        assert rel.weights[0, 0] == 2.0

    def test_oversize_cell_is_a_parse_error(self):
        with pytest.raises(errors.ParseError) as info:
            read_matrix_csv(",a1\nb1," + "1" * 140_000 + "\n")
        assert (info.value.line, info.value.column) == (2, 0)
        assert info.value.reason.startswith("field larger than field limit")

    def test_field_size_limit_is_read_at_call_time(self):
        old = csv.field_size_limit(8)
        try:
            with pytest.raises(errors.ParseError, match="field larger"):
                read_matrix_csv(",a1\nb1,123456789\n")
        finally:
            csv.field_size_limit(old)

    def test_plain_grid_never_reaches_the_streamed_reader(self, monkeypatch):
        text = ",a1,a2\r\n\r\n , \r\nb1, 2.5 ,1e-3\r\nb2,-0,+7\r\n"
        expected = _outcome(reference.read_matrix_csv, text)
        monkeypatch.setattr(bicentral.io.csv, "reader", _fail)
        assert _outcome_in_bulk(monkeypatch, text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            ",a1,a2\nb1,,3\nb2,1,2\n",
            ",a1,a2\nb1,4/3,3\nb2,1,2\n",
            ",a1\nb1,\nb2,\n",
            ',"a1"\n"b1",2\n',
        ],
    )
    def test_blank_cell_fraction_or_quote_falls_back(self, monkeypatch, text):
        # Blank cells and fractions fall back to the cell reader; a quote
        # sends the document to csv.reader, and its weights to the cell
        # reader too.
        expected = _outcome(reference.read_matrix_csv, text)
        calls = {"reader": 0, "_parse_row": 0}

        def count(module, name):
            real = getattr(module, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, spy)

        count(bicentral.io.csv, "reader")
        count(bicentral.io, "_parse_row")
        with warnings.catch_warnings():
            # loadtxt warns on input without data; it must never see that.
            warnings.simplefilter("error")
            assert _outcome(read_matrix_csv, text) == expected
        assert calls["_parse_row"] > 0
        assert (calls["reader"] > 0) == ('"' in text)

    @pytest.mark.parametrize(
        "text,limit,expected",
        [
            (",a1,a2\nb1,2,3\n", None, False),
            (",a1,a2\nb1,,1/2\nb2,zebra,1\n", None, False),
            (",a1,a2\nb1,123456,3\n", 11, False),
            (",a1,a2\nb1,123456,3\n", 10, True),
            (',a1,a2\nb1,2,"3"\n', None, True),
            (",a1,a2\nb1,2,3\x00\n", None, True),
            (",a1,a2\nb\x00,2,3\n", None, True),
            (",a1,a2\nb1,123456789,3\n", 8, True),
        ],
    )
    def test_csv_reader_only_for_a_quote_nul_or_long_line(
        self, monkeypatch, text, limit, expected
    ):
        calls = []
        real_reader = csv.reader

        def spy(*args):
            calls.append(args)
            return real_reader(*args)

        monkeypatch.setattr(bicentral.io.csv, "reader", spy)
        old = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            _outcome(read_matrix_csv, text)
        finally:
            csv.field_size_limit(old)
        assert bool(calls) == expected

    @pytest.mark.parametrize(
        "text,line,column,reason",
        [
            (",a1\nb1,zebra\n,2\n", 2, 2, "bad number 'zebra'"),
            (",a1\nb1,zebra\nb1,2\n", 2, 2, "bad number 'zebra'"),
            (",a1,a2\nb1,zebra,1\nb2,1\n", 2, 2, "bad number 'zebra'"),
            (",a1,a2\nb1,1,2\nb2,1\nb3,-1,2\n", 3, 3, "expected 2 value cells, found 1"),
            (',"a1"\nb1,zebra\n,2\n', 2, 2, "bad number 'zebra'"),
            (',"a1"\nb1,zebra\n"b1",2\n', 2, 2, "bad number 'zebra'"),
            (',"a1","a2"\nb1,zebra,1\nb2,1\n', 2, 2, "bad number 'zebra'"),
            (",a1\nb1,zebra\nb2,123456789\n", 2, 2, "bad number 'zebra'"),
            (',a1\nb1,"zebra"\nb2,123456789\n', 2, 2, "bad number 'zebra'"),
            (",a1\nb1,1\nb2,123456789\nb3,zebra\n", 3, 0, "field larger than field limit (8)"),
            (",a1\nb1,1\n,1\nb2,123456789\n", 3, 1, "empty row label"),
        ],
    )
    def test_first_error_in_line_order(self, text, line, column, reason):
        # A bad cell is raised before a later label, count or oversize
        # fault, which a reader that checked those rules first would raise.
        old = csv.field_size_limit(8)
        try:
            with pytest.raises(errors.ParseError) as info:
                read_matrix_csv(text)
        finally:
            csv.field_size_limit(old)
        assert (info.value.line, info.value.column, info.value.reason) == (
            line,
            column,
            reason,
        )

    def test_signed_zero_and_padding_are_bit_identical(self):
        text = ",a1,a2,a3\nb1,-0, 2.5 ,\t1e-3\n"
        assert _outcome(read_matrix_csv, text) == _outcome(
            reference.read_matrix_csv, text
        )
        assert np.signbit(read_matrix_csv(text).weights[0, 0])


#: Characters ``str.splitlines`` ends a line at, though they end none.
_NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLineEnds:
    """Every reader ends a line at LF, CRLF and CR, and at nothing else."""

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    @pytest.mark.parametrize(
        "template",
        [
            ",a1,a2\n{label},2,3\nb2,2,1\n",
            ',"a1",a2\n{label},2,3\nb2,2,1\n',
            ',a1,a2\n"{label}",2,3\nb2,2,1\n',
        ],
        # Split at commas; read by csv.reader; read by csv.reader from
        # a quoted label.
        ids=["bulk", "streamed", "streamed-quoted"],
    )
    def test_matrix_label_keeps_the_character(self, template, char):
        rel = read_matrix_csv(template.format(label=f"b{char}x"))
        assert rel.b_labels == (f"b{char}x", "b2")
        np.testing.assert_array_equal(rel.weights, [[2.0, 3.0], [2.0, 1.0]])

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    def test_edge_label_keeps_the_character(self, char):
        rel = read_edge_list(f"a{char}1\tb1\t2\na2\tb1\t3\n")
        assert rel.a_labels == (f"a{char}1", "a2")

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    def test_table_rows_count_only_line_ends(self, char):
        with pytest.raises(errors.ParseError) as info:
            read_transform_table(f"2\t0.5\n{char}\n3\tzebra\n")
        assert (info.value.line, info.value.column) == (3, 2)

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    def test_target_value_is_not_split(self, char):
        with pytest.raises(errors.ParseError) as info:
            read_target(f"0.6{char}0.8\n")
        token = f"0.6{char}0.8"
        assert (info.value.line, info.value.reason) == (1, f"bad number {token!r}")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize(
        "read,lines,column",
        [
            (read_matrix_csv, [",a1", "b1,1", "b2,zebra"], 2),
            (read_edge_list, ["a1\tb1\t1", "a2\tb1\t2", "a3\tb1\tzebra"], 3),
            (read_transform_table, ["1\t2", "2\t3", "3\tzebra"], 2),
            (read_target, ["0.6", "0.8", "zebra"], 1),
        ],
        ids=["matrix", "edges", "table", "target"],
    )
    def test_line_numbers_under_every_line_end(self, read, lines, column, end):
        with pytest.raises(errors.ParseError) as info:
            read(end.join(lines) + end)
        assert (info.value.line, info.value.column) == (3, column)


def _read_outcome(read, text):
    """What a reader makes of ``text``: its value, an array as raw bytes, or
    the ParseError's class, position and reason."""
    try:
        value = read(text)
    except errors.ParseError as exc:
        return type(exc), exc.line, exc.column, exc.reason
    return value.tobytes() if isinstance(value, np.ndarray) else value


class TestByteOrderMark:
    """A leading U+FEFF is dropped by every reader; any other is content."""

    @pytest.mark.parametrize(
        "read,text",
        [
            (read_matrix_csv, ",a1,a2\nb1,2,3\nb2,2,1\n"),
            (read_matrix_csv, ',"a1",a2\nb1,2,3\nb2,2,1\n'),
            (read_matrix_csv, "\n,a1\nb1,5\n"),
            (read_matrix_csv, "\n,a1\nb1,zebra\n"),
            (read_edge_list, "a1\tb1\t2\na2\tb1\t3\n"),
            (read_edge_list, "a1\tb1\t2\na1\tb1\t3\n"),
            (read_target, "0.6\n0.8\n"),
            (read_target, "0.6\nzebra\n"),
            (read_transform_table, "2\t0.5\n3\t0.25\n"),
            (read_transform_table, "2\t0.5\n3\tzebra\n"),
        ],
        ids=[
            "matrix-bulk",
            "matrix-streamed",
            "matrix-blank-first-line",
            "matrix-error",
            "edges",
            "edges-error",
            "target",
            "target-error",
            "table",
            "table-error",
        ],
    )
    def test_reads_as_the_text_without_it(self, read, text):
        assert _read_outcome(read, "\ufeff" + text) == _read_outcome(read, text)

    def test_only_one_leading_mark_is_dropped(self):
        rel = read_edge_list("\ufeff\ufeffa1\tb1\t2\n")
        assert rel.a_labels == ("\ufeffa1",)

    def test_a_mark_elsewhere_is_content(self):
        rel = read_edge_list("a1\tb1\t2\n\ufeffa1\tb1\t3\n")
        assert rel.a_labels == ("a1", "\ufeffa1")
        rel = read_matrix_csv(",a1\nb1,5\n\ufeffb1,6\n")
        assert rel.b_labels == ("b1", "\ufeffb1")
        with pytest.raises(errors.ParseError) as info:
            read_target("0.6\n\ufeff0.8\n")
        assert (info.value.line, info.value.reason) == (2, "bad number '\\ufeff0.8'")


class TestReadTarget:
    def test_decimals_and_fractions(self):
        np.testing.assert_array_equal(
            read_target("0.6\n\n 4/5 \n"), [0.6, float(Fraction(4, 5))]
        )

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            ("0.6\nzebra\n", 2, "bad number 'zebra'"),
            ("1/0\n", 1, "bad fraction '1/0'"),
            ("0.6\n inf\n", 2, "non-finite value 'inf'"),
            ("nan\n", 1, "non-finite value 'nan'"),
        ],
    )
    def test_errors_come_from_the_shared_number_parser(self, text, line, reason):
        with pytest.raises(errors.ParseError) as info:
            read_target(text)
        assert (info.value.line, info.value.column, info.value.reason) == (
            line,
            1,
            reason,
        )

    def test_empty_rejected(self):
        with pytest.raises(errors.ParseError, match="no values"):
            read_target("\n  \n")


class TestReadEdgeList:
    def test_worked_example_fixture(self, fixtures_dir, ex51):
        text = (fixtures_dir / "ex51_edges.tsv").read_text()
        assert read_edge_list(text) == ex51

    def test_matches_matrix_reader(self, fixtures_dir):
        csv_rel = read_matrix_csv((fixtures_dir / "ex51.csv").read_text())
        edge_rel = read_edge_list((fixtures_dir / "ex51_edges.tsv").read_text())
        assert csv_rel == edge_rel

    def test_absent_pairs_are_zero(self):
        rel = read_edge_list("a1\tb1\t2\na2\tb2\t3\n")
        np.testing.assert_array_equal(rel.weights, [[2.0, 0.0], [0.0, 3.0]])

    def test_empty_input(self):
        with pytest.raises(errors.EmptyRelation):
            read_edge_list("\n\n")

    def test_duplicate_edge(self):
        with pytest.raises(errors.DuplicateEdge):
            read_edge_list("a1\tb1\t2\na1\tb1\t3\n")

    def test_nonpositive_weight(self):
        with pytest.raises(errors.NonPositiveWeight):
            read_edge_list("a1\tb1\t0\n")

    def test_field_count(self):
        with pytest.raises(errors.ParseError):
            read_edge_list("a1\tb1\n")


class TestWriteReport:
    def test_nebs_json_schema(self, ex51):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        tables = {
            "a": rank(result.a, ex51.a_labels),
            "b": rank(result.b, ex51.b_labels),
        }
        payload = json.loads(write_report(result, tables, "json"))
        assert set(payload) == {
            "a",
            "b",
            "lambda",
            "mu",
            "rho",
            "alpha",
            "beta",
            "iterations",
            "final_residual",
            "rate_estimate",
            "warnings",
        }
        top_b = payload["b"][0]
        assert top_b["label"] == "b1"
        assert top_b["score"] == pytest.approx(0.866025403784, abs=1e-11)
        assert top_b["rank"] == 1
        assert payload["warnings"] == []

    def test_degeneracy_warning_serialized(self, latin):
        result = compute_nebs(latin, ReverseTransform.identity())
        tables = {
            "a": rank(result.a, latin.a_labels),
            "b": rank(result.b, latin.b_labels),
        }
        payload = json.loads(write_report(result, tables, "json"))
        codes = {w["code"] for w in payload["warnings"]}
        assert "CONSTANT_B_VECTOR" in codes
        assert all({"code", "message", "side"} == set(w) for w in payload["warnings"])

    def test_necs_json_schema(self):
        result = compute_necs(np.array([[1.0, 2.0], [2.0, 1.0]]))
        payload = json.loads(
            write_report(result, {"c": rank(result.c, ["v1", "v2"])}, "json")
        )
        assert "a" not in payload and "b" not in payload
        assert payload["eigenvalue"] == pytest.approx(3.0)
        assert payload["lambda"] == pytest.approx(1.0 / 3.0)
        assert [e["label"] for e in payload["c"]] == ["v1", "v2"]

    def test_scores_round_trip_at_twelve_digits(self, ex51):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        tables = {
            "a": rank(result.a, ex51.a_labels),
            "b": rank(result.b, ex51.b_labels),
        }
        payload = json.loads(write_report(result, tables, "json"))
        by_label = {e["label"]: e["score"] for e in payload["a"]}
        for entry, score in zip(result.a, [by_label["a1"], by_label["a2"]]):
            assert score == float(f"{entry:.12g}")

    def test_tsv_tables(self, ex51):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        tables = {
            "a": rank(result.a, ex51.a_labels),
            "b": rank(result.b, ex51.b_labels),
        }
        text = write_report(result, tables, "tsv")
        lines = text.splitlines()
        assert lines[0] == "side\tlabel\tscore\trank\ttied"
        assert len(lines) == 5
        assert lines[1].startswith("a\ta2\t")

    def test_missing_table_rejected(self, ex51):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        with pytest.raises(errors.DimensionMismatch):
            write_report(result, {"a": rank(result.a, ex51.a_labels)}, "json")

    def test_unknown_format_rejected(self, ex51):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        with pytest.raises(ValueError):
            write_report(result, {}, "xml")

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("score", [float("nan"), float("inf")], ids=str)
    def test_score_that_is_not_finite_is_refused(self, ex51, score, fmt):
        result = compute_nebs(ex51, ReverseTransform.reciprocal())
        tables = {
            "a": rank(result.a, ex51.a_labels),
            "b": rank(np.array([score, 1.0]), ex51.b_labels),
        }
        message = "^b scores hold a value that is not finite$"
        with pytest.raises(ValueError, match=message):
            write_report(result, tables, fmt)
        with pytest.raises(ValueError, match=message):
            write_tables_tsv(tables)

    def test_reciprocal_beyond_the_double_range_is_null(self):
        result = NebsResult(
            a=[1.0],
            b=[1.0],
            alpha=5e-310,
            beta=2.0,
            convergence=ConvergenceReport(
                iterations=1, residual_trace=(0.0,), tolerance=1e-10
            ),
        )
        tables = {"a": rank([1.0], ("x",)), "b": rank([1.0], ("p",))}
        text = write_report(result, tables, "json")
        assert '  "lambda": null,\n' in text
        payload = json.loads(text)
        assert (payload["alpha"], payload["mu"]) == (5e-310, 0.5)
        assert payload["rate_estimate"] is None


#: Label characters json escapes or must pass through: quote, backslash,
#: control characters, DEL and non-ASCII (two-byte, three-byte, astral).
_label_chars = st.one_of(
    st.sampled_from(list('"\\\x00\x08\x1f\n\t\x7f\u00e9\u2603\U0001d11e')),
    st.characters(),
)
_labels = st.text(_label_chars, max_size=6)
_magnitudes = st.floats(-1e300, 1e300) | st.floats(1e-300, 1e-200)


@st.composite
def _tables(draw):
    """A ranked table over a few distinct scores, so exact ties and near
    ties come up often; one entry about as often as many."""
    pool = draw(st.lists(_magnitudes, min_size=1, max_size=4))
    size = draw(st.one_of(st.just(1), st.integers(1, 12)))
    scores = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    labels = draw(st.lists(_labels, min_size=size, max_size=size))
    tie_tol = draw(st.sampled_from([0.0, 1e-9, 1e299]))
    return rank(np.array(scores), labels, tie_tol)


@st.composite
def _convergence(draw):
    return ConvergenceReport(
        iterations=draw(st.integers(1, 10**6)),
        residual_trace=(draw(_magnitudes),),
        tolerance=1e-10,
        rate_estimate=draw(st.none() | _magnitudes),
    )


_diagnostics = st.lists(
    st.builds(
        Diagnostic,
        code=st.sampled_from(["CONSTANT_A_VECTOR", "CONSTANT_B_VECTOR"]),
        message=_labels,
        side=st.sampled_from(["a", "b"]),
    ),
    max_size=2,
)


_norms = st.floats(1e-300, 1e300) | st.floats(5e-324, 1e-307)


@st.composite
def _nebs_results(draw):
    return NebsResult(
        a=[1.0],
        b=[1.0],
        # The solver never builds a zero or negative alpha or beta (that
        # case raises ZeroVector), and lambda_ = 1/alpha would raise on 0.
        # Below 1/max_double, lambda_ or mu is beyond the double range.
        alpha=draw(_norms),
        beta=draw(_norms),
        convergence=draw(_convergence()),
        warnings=tuple(draw(_diagnostics)),
    )


@st.composite
def _necs_results(draw):
    eigenvalue = draw(st.floats(1e-300, 1e300))
    return NecsResult(c=[1.0], eigenvalue=eigenvalue, convergence=draw(_convergence()))


def _tsv_or_error(write, *args):
    """The TSV text ``write`` returns, or the message of its ValueError."""
    try:
        return write(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestReportBytesMatchReference:
    """The direct writer against ``json.dumps(payload, indent=2)`` of the
    plain-dict payload, and against the entry-by-entry TSV writer."""

    @settings(max_examples=100, deadline=None)
    @given(result=_nebs_results(), a=_tables(), b=_tables())
    def test_nebs(self, result, a, b):
        tables = {"b": b, "a": a}
        ordered = {"a": a, "b": b}
        assert write_report(result, tables, "json") == reference.report_json(
            result, tables
        )
        assert _tsv_or_error(write_report, result, tables, "tsv") == _tsv_or_error(
            reference.tables_tsv, ordered
        )

    @settings(max_examples=100, deadline=None)
    @given(result=_necs_results(), c=_tables())
    def test_necs(self, result, c):
        tables = {"c": c}
        assert write_report(result, tables, "json") == reference.report_json(
            result, tables
        )
        assert _tsv_or_error(write_report, result, tables, "tsv") == _tsv_or_error(
            reference.tables_tsv, tables
        )

    @settings(max_examples=100, deadline=None)
    @given(a_bar=_tables(), b_bar=_tables())
    def test_baseline(self, a_bar, b_bar):
        tables = {"a_bar": a_bar, "b_bar": b_bar}
        assert bicentral.io._write_json(tables, {}) == reference.baseline_json(tables)
        assert _tsv_or_error(write_tables_tsv, tables) == _tsv_or_error(
            reference.tables_tsv, tables
        )

    @pytest.mark.parametrize(
        "scores",
        [
            [],
            [float("inf"), 1.0, float("nan"), -float("inf")],
            [5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308],
            [0.0, -0.0, 1e16, 123456789012345.0, 1e-5],
        ],
    )
    def test_extreme_and_empty_tables(self, scores):
        labels = [f"x{i}" for i in range(len(scores))]
        table = reference.rank(np.array(scores), labels, 0.0)
        tables = {"a_bar": table, "b_bar": table}
        if not np.isfinite(scores).all():
            # Neither JSON nor the TSV reader can carry such a score back.
            message = "^a_bar scores hold a value that is not finite$"
            with pytest.raises(ValueError, match=message):
                bicentral.io._write_json(tables, {})
            with pytest.raises(ValueError, match=message):
                write_tables_tsv(tables)
            return
        assert bicentral.io._write_json(tables, {}) == reference.baseline_json(tables)
        assert write_tables_tsv(tables) == reference.tables_tsv(tables)


class TestMatrixRoundTrip:
    def test_write_then_read_is_bit_exact(self):
        rng = np.random.default_rng(41)
        weights = rng.uniform(0.001, 1000.0, (4, 3))
        a_labels = ("x", "y", "z")
        b_labels = ("p", "q", "r", "s")
        text = write_matrix_csv(a_labels, b_labels, weights)
        back = read_matrix_csv(text)
        assert back.a_labels == a_labels
        assert back.b_labels == b_labels
        np.testing.assert_array_equal(back.weights, weights)

    @pytest.mark.parametrize("axis", ["a", "b"])
    @pytest.mark.parametrize("label", ["x\r1", "x\r\n1"], ids=ascii)
    def test_label_with_a_cr_is_refused(self, axis, label):
        labels = {"a": ("a1",), "b": ("b1",)}
        labels[axis] = (label,)
        with pytest.raises(ValueError) as got:
            write_matrix_csv(labels["a"], labels["b"], [[2.0]])
        assert str(got.value) == (
            f"{axis} label {label!r} holds a CR and would not read back"
        )

    def test_shape_must_match_the_labels(self):
        with pytest.raises(errors.DimensionMismatch) as info:
            write_matrix_csv(("a1", "a2"), ("b1",), [[2.0, 3.0, 4.0]])
        assert str(info.value) == "matrix shape (1, 3) does not match label counts"

    def test_labels_with_a_line_feed_round_trip(self):
        a_labels, b_labels = ("a\n1", "a2"), ("b1", "b\n2")
        text = write_matrix_csv(a_labels, b_labels, [[2.0, 3.0], [4.0, 5.0]])
        back = read_matrix_csv(text)
        assert (back.a_labels, back.b_labels) == (a_labels, b_labels)

    def test_product_fixture_parses_to_exact_values(self, fixtures_dir):
        rel = read_matrix_csv((fixtures_dir / "ex51_product.csv").read_text())
        expected = np.array([[2.0, 4.0], [float(Fraction(4, 3)), 2.0]])
        np.testing.assert_array_equal(rel.weights, expected)


class TestTransformTableRoundTrip:
    def test_round_trip_preserves_lookups(self):
        mapping = {2.0: 1.0 / 3.0, 3.0: 0.1, 0.7: 5.0}
        transform = ReverseTransform.from_table(mapping)
        back = read_transform_table(write_transform_table(transform))
        assert dict(back.table) == dict(transform.table)

    def test_only_table_transforms_serialize(self):
        with pytest.raises(ValueError):
            write_transform_table(ReverseTransform.identity())

    def test_duplicate_weight_rejected(self):
        with pytest.raises(errors.ParseError):
            read_transform_table("2.0\t1.0\n2.0\t3.0\n")

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptyRelation):
            read_transform_table("\n")


@pytest.mark.parametrize("label", ["b\t1", "b\n1", "b\r1"], ids=ascii)
def test_write_tables_tsv_refuses_a_label_with_a_tab_or_line_break(label):
    tables = {
        "a": rank(np.array([0.6, 0.8]), ("a1", "a2")),
        "b": rank(np.array([0.8, 0.6]), (label, "b2")),
    }
    with pytest.raises(ValueError) as info:
        write_tables_tsv(tables)
    assert str(info.value) == f"b label {label!r} would break its TSV row"


def test_write_tables_tsv_contains_all_sides(ex51):
    tables = {
        "a_bar": rank(np.array([2.0, 2.0]), ex51.a_labels),
        "b_bar": rank(np.array([2.5, 1.5]), ex51.b_labels),
    }
    text = write_tables_tsv(tables)
    assert "a_bar\ta1\t2\t1\ttrue" in text
    assert "b_bar\tb2\t1.5\t2\tfalse" in text
