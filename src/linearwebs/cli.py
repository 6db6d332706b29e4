"""Command-line front end.

Subcommands:

    analyze <file>       full analysis bundle for one matrix
    closed-form <file>   closed-form equations only
    verify-paper         audit battery over the three bundled examples
    survey               seeded genericity survey over a parameter family

Matrix files are JSON arrays of arrays of integers or "p/q" strings (an
integer, or integer/integer, nothing else); CSV with the same tokens is
accepted as a fallback.  ``analyze`` and ``survey``
reject orders above ``MAX_ORDER``.  Exit codes: 0 success, 1 internal
invariant violation (including failed derived-math checks in verify-paper),
2 bad user input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from .analysis import analyze, reference_audit
from .families import FAMILY_CONSTRAINTS, FamilySpec, survey
from .ratlin import RatMatrix
from .webmodel import MAX_ORDER, WebConstructionError, build_web, closed_form

__all__ = ["main"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

ANALYZE_ORDER_HELP = (f"orders above {MAX_ORDER} are rejected: the audit scans every "
                      f"minor of A below order n for zeros and row-reduces once per "
                      f"failed block, about 0.1 s for a dense matrix at n = 9 but "
                      f"25 s for the 9x9 identity, which fails 96,234 blocks")
SURVEY_ORDER_HELP = (f"orders above {MAX_ORDER} are rejected: each web's minors of "
                     f"order 1..n-1 are scanned, 48,618 of them at n = 9, about "
                     f"0.04 s per web in general position")


class _UsageError(Exception):
    pass


def _load_matrix(path: str) -> RatMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = _parse_csv(text, path)
    except (ValueError, RecursionError) as exc:
        # well-formed JSON the parser still refuses: an integer longer than
        # Python's digit limit, or arrays nested past the recursion limit
        raise _UsageError(f"malformed matrix in {path}: {exc}") from exc
    if isinstance(data, dict):
        # object form {"n": 3, "A": [[...], ...]}
        if "A" not in data:
            raise _UsageError(f"matrix object in {path} lacks an \"A\" field")
        if "n" in data:
            stated_n = data["n"]
            if not isinstance(stated_n, int) or isinstance(stated_n, bool):
                raise _UsageError(f"matrix object in {path} states a "
                                  f"non-integer order n={stated_n!r}")
            if not isinstance(data["A"], list) or len(data["A"]) != stated_n:
                raise _UsageError(f"matrix in {path} does not have the stated "
                                  f"order n={stated_n}")
        data = data["A"]
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise _UsageError(f"malformed matrix in {path}: expected an array of arrays")
    try:
        return RatMatrix(data)
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"malformed matrix in {path}: {exc}") from exc


def _parse_csv(text: str, path: str):
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise _UsageError(f"{path} is neither JSON nor CSV matrix data: {exc}") from exc
    if not rows:
        raise _UsageError(f"{path} is neither JSON nor CSV matrix data")
    return [[token.strip() for token in row] for row in rows]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, got {value}")
    return value


def _emit(result, args) -> None:
    """Write ``result.to_dict()`` as JSON or ``result.to_text()``.

    The body is rendered in full before anything is written, so an exact
    value past Python's int-to-str digit limit exits 2 with no output.
    """
    try:
        body = (json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
                if args.json else result.to_text() + "\n")
    except ValueError as exc:
        raise _UsageError(f"cannot print the result: {exc}") from exc
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(body)


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise _UsageError(f"order {n} is above the limit MAX_ORDER = {MAX_ORDER}")


def _cmd_analyze(args) -> int:
    A = _load_matrix(args.matrix)
    _check_order(max(A.rows, A.cols))
    try:
        bundle = analyze(A)
    except WebConstructionError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(bundle, args)
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    A = _load_matrix(args.matrix)
    try:
        equations = closed_form(build_web(A))
    except WebConstructionError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(equations, args)
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    report = reference_audit()
    _emit(report, args)
    return EXIT_OK if report.derived_ok else EXIT_INTERNAL


def _cmd_survey(args) -> int:
    if args.count <= 0:
        raise _UsageError("--count must be positive")
    _check_order(args.n)
    try:
        spec = FamilySpec(name=args.family, n=args.n, entry_bound=args.bound)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    stats = survey(spec, count=args.count, seed=args.seed, jobs=args.jobs)
    _emit(stats, args)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linearwebs",
        description="exact construction and audit of linear codimension-two webs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the report to FILE instead of stdout")

    p = sub.add_parser("analyze", help="full analysis of one matrix",
                       description=f"Full analysis of one matrix; {ANALYZE_ORDER_HELP}.")
    p.add_argument("matrix", help="JSON or CSV matrix file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("closed-form", help="closed-form equations of one matrix")
    p.add_argument("matrix", help="JSON or CSV matrix file")
    common(p)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("verify-paper",
                       help="audit the three bundled reference examples")
    common(p)
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("survey", help="seeded genericity survey")
    p.add_argument("--family", default="generic",
                   choices=sorted(FAMILY_CONSTRAINTS))
    p.add_argument("--n", type=int, default=3,
                   help=f"order of the sampled matrices; {SURVEY_ORDER_HELP}")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=9,
                   help="entry box half-width for sampling")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker threads; results are identical at any level")
    common(p)
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
