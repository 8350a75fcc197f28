"""Command-line front end.

Subcommands: nebs (two-sided ratings), necs (single-set centrality), check
(input diagnostics), baseline (mean-weight tables), construct-reverse
(reverse weights realizing a chosen a-side rating).

Exit codes: 0 success, 1 parse or usage error, 2 precondition failure,
3 no convergence. Warnings never change the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from bicentral import errors
from bicentral.centrality import (
    DEFAULT_TIE_TOL,
    _degeneracy,
    baseline_averages,
    compute_nebs,
    compute_necs,
    construct_reverse_for_target,
    rank,
)
from bicentral.core import _PARAMETER, ReverseTransform, WeightRelation, _validate
from bicentral.io import (
    _parse_number,
    _significant,
    _write_json,
    diagnostic_payload,
    read_edge_list,
    read_matrix_csv,
    read_target,
    read_transform_table,
    write_matrix_csv,
    write_report,
    write_tables_tsv,
    write_transform_table,
)
from bicentral.spectral import PowerSettings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage errors are exit 1 here.
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bicentral", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    io_flags = argparse.ArgumentParser(add_help=False)
    group = io_flags.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", metavar="PATH", help="labeled matrix CSV")
    group.add_argument("--edges", metavar="PATH", help="tab-separated edge list")

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--tol", type=float, default=PowerSettings.tolerance)
    solver_flags.add_argument("--max-iter", type=int, default=PowerSettings.max_iterations)

    table_flags = argparse.ArgumentParser(add_help=False)
    table_flags.add_argument("--tie-tol", type=float, default=DEFAULT_TIE_TOL)
    table_flags.add_argument("--format", choices=("json", "tsv"), default="json")

    phi_flags = argparse.ArgumentParser(add_help=False)
    phi_flags.add_argument(
        "--phi",
        required=True,
        metavar="SPEC",
        help="identity | reciprocal | scale:<gamma> | power:<p> | table:<path>",
    )

    sub.add_parser(
        "nebs",
        parents=[io_flags, phi_flags, solver_flags, table_flags],
        help="two-sided ratings of a weight relation",
    )
    sub.add_parser(
        "necs",
        parents=[io_flags, solver_flags, table_flags],
        help="centrality ratings of a square adjacency matrix",
    )
    sub.add_parser(
        "check",
        parents=[io_flags, phi_flags],
        help="validate an input against the solver's hypotheses",
    )
    sub.add_parser(
        "baseline",
        parents=[io_flags, table_flags],
        help="mean-weight baseline tables",
    )
    construct = sub.add_parser(
        "construct-reverse",
        parents=[io_flags],
        help="reverse weights that realize a target a-side rating",
    )
    construct.add_argument("--target", required=True, metavar="PATH")
    construct.add_argument("--out-matrix", required=True, metavar="PATH")
    construct.add_argument("--out-phi", required=True, metavar="PATH")
    return parser


def _parse_transform(spec: str) -> ReverseTransform:
    kind, colon, text = spec.strip().partition(":")
    # identity and reciprocal are written bare, every other kind with a colon.
    if kind in _PARAMETER and bool(colon) == (_PARAMETER[kind] is not None):
        try:
            if kind == "table":
                if not text:
                    raise ValueError("empty table path")
                return read_transform_table(Path(text).read_text(encoding="utf-8"))
            if colon:
                return ReverseTransform(kind, **{_PARAMETER[kind]: _parameter(text)})
            return ReverseTransform(kind)
        except ValueError as exc:
            raise errors.ParseError(0, 0, f"bad transform {spec!r}: {exc}") from None
    raise errors.ParseError(0, 0, f"unknown transform {spec!r}")


def _parameter(text: str) -> float:
    """The number after the colon of a ``kind:value`` spec, read by the
    parser of matrix cells; ValueError with its reason when it is bad."""
    try:
        return _parse_number(text, 0, 0)
    except errors.ParseError as exc:
        raise ValueError(exc.reason) from None


def _load_relation(args: argparse.Namespace) -> WeightRelation:
    if args.matrix is not None:
        return read_matrix_csv(Path(args.matrix).read_text(encoding="utf-8"))
    return read_edge_list(Path(args.edges).read_text(encoding="utf-8"))


def _settings(args: argparse.Namespace) -> PowerSettings:
    return PowerSettings(tolerance=args.tol, max_iterations=args.max_iter)


def _cmd_nebs(args: argparse.Namespace) -> tuple[str, int]:
    rel = _load_relation(args)
    transform = _parse_transform(args.phi)
    result = compute_nebs(rel, transform, _settings(args))
    tables = {
        "a": rank(result.a, rel.a_labels, args.tie_tol),
        "b": rank(result.b, rel.b_labels, args.tie_tol),
    }
    return write_report(result, tables, args.format), EXIT_OK


def _cmd_necs(args: argparse.Namespace) -> tuple[str, int]:
    rel = _load_relation(args)
    if args.matrix is not None and set(rel.a_labels) != set(rel.b_labels):
        raise errors.ParseError(
            0, 0, "adjacency input must carry the same labels on both axes"
        )
    # An edge list names a vertex on an axis only when it has an edge on that
    # side, so both axes list the a-column labels in first-appearance order,
    # then those seen only in the b column; a missing vertex gets a zero line.
    labels = tuple(dict.fromkeys(rel.a_labels + rel.b_labels))
    adjacency = rel.weights
    if rel.a_labels != labels or rel.b_labels != labels:
        index = {label: i for i, label in enumerate(labels)}
        adjacency = np.zeros((len(labels), len(labels)))
        adjacency[np.ix_(
            [index[label] for label in rel.b_labels],
            [index[label] for label in rel.a_labels],
        )] = rel.weights
    result = compute_necs(adjacency, _settings(args))
    tables = {"c": rank(result.c, labels, args.tie_tol)}
    return write_report(result, tables, args.format), EXIT_OK


def _cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    rel = _load_relation(args)
    transform = _parse_transform(args.phi)
    report, operator = _validate(rel, transform)
    warnings = () if operator is None else _degeneracy(operator)
    payload = {
        "ok": report.ok,
        "violations": list(report.violations),
        "checks": {
            "all_positive": report.all_positive,
            "transform_applicable": report.transform_applicable,
            "products_irreducible": report.products_irreducible,
            "zero_rows": list(report.zero_rows),
            "zero_columns": list(report.zero_columns),
        },
        "warnings": diagnostic_payload(warnings),
    }
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return text, EXIT_OK if report.ok else EXIT_PRECONDITION


def _cmd_baseline(args: argparse.Namespace) -> tuple[str, int]:
    rel = _load_relation(args)
    base = baseline_averages(rel)
    tables = {
        "a_bar": rank(base.a_bar, rel.a_labels, args.tie_tol),
        "b_bar": rank(base.b_bar, rel.b_labels, args.tie_tol),
    }
    if args.format == "tsv":
        return write_tables_tsv(tables), EXIT_OK
    return _write_json(tables, {}), EXIT_OK


def _cmd_construct_reverse(args: argparse.Namespace) -> tuple[str, int]:
    rel = _load_relation(args)
    target = read_target(Path(args.target).read_text(encoding="utf-8"))
    built = construct_reverse_for_target(rel.weights, target)
    matrix_text = write_matrix_csv(
        a_labels=rel.b_labels, b_labels=rel.a_labels, weights=built.reverse_weights
    )
    phi_text = write_transform_table(built.transform)
    Path(args.out_matrix).write_text(matrix_text, encoding="utf-8")
    Path(args.out_phi).write_text(phi_text, encoding="utf-8")
    payload = {
        "lambda": _significant(built.lambda_),
        "mu": _significant(built.mu),
        "out_matrix": args.out_matrix,
        "out_phi": args.out_phi,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n", EXIT_OK


_COMMANDS = {
    "nebs": _cmd_nebs,
    "necs": _cmd_necs,
    "check": _cmd_check,
    "baseline": _cmd_baseline,
    "construct-reverse": _cmd_construct_reverse,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"bicentral: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        output, code = _COMMANDS[args.command](args)
    except errors.ParseError as exc:
        print(f"bicentral: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.NoConvergence as exc:
        print(f"bicentral: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except errors.BicentralError as exc:
        print(f"bicentral: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError) as exc:
        print(f"bicentral: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
