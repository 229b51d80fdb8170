"""Command-line front end.

Subcommands:
    coeff <mock-name> <n...>         exact coefficients of a mock theta series
    series <expr> --order N          expand a claim-language expression
    verify [claim-id|all] [...]      run the registry and/or user claim files
    enumerate <ruleset-name> <n>     signed colored-partition count (--list shows them)
    list                             print the registry with citations

Exit codes: 0 all pass, 1 any verification failure, 2 usage or input error
(including a claim whose evaluation raised, reported with status ``error``,
a claim reported ``skipped``, which checked nothing, a command whose
deepest expansion is beyond ``claims.MAX_ORDER``, an ``enumerate`` count
past it, and output with a coefficient past the interpreter's limit on
digits in an integer's text).
``claims.within_cap`` plans the ``(series, order)`` reads of ``coeff``, ``series``
and ``verify`` and caps every node before any work; all three run those plans.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import claims as claims_mod
from . import partitions
from .claims import MAX_ORDER, Claim, verify, within_cap
from .expr import Mock, ParseError, parse_expr, run
from .mock import MockThetaId
from .ntheory import PreconditionError
from .series import SeriesError, format_series

_COLOR_NAMES = "abcdefghij"


def _int(text: str) -> int:
    try:
        return claims_mod.read_int(text)
    except ValueError:  # argparse's own wording for a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value <= 0:
        # an order or count of 0 would check nothing and report a vacuous pass
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseries",
        description="Exact q-series engine and identity/congruence verifier",
    )
    sub = parser.add_subparsers(dest="command")

    c = sub.add_parser("coeff", help="print exact mock theta coefficients")
    c.add_argument("name", help="one of " + ", ".join(m.value for m in MockThetaId))
    c.add_argument("indices", nargs="+", type=_int)

    s = sub.add_parser("series", help="expand an expression")
    # optional to argparse, which takes "-l(1)^2" for an unknown option; main
    # reads a lone such token as the expression and requires one
    s.add_argument("expr", nargs="?")
    s.add_argument("--order", type=_int, default=50)

    v = sub.add_parser("verify", help="verify registry and/or file claims")
    v.add_argument("claim", nargs="?", default="all")
    v.add_argument(
        "--order", type=_positive_int, default=None,
        help="override the series order of identities and recurrences",
    )
    v.add_argument(
        "--count", type=_positive_int, default=None,
        help="override the term count of congruences and families, and the enumeration "
        "bound of interpretations, which is not capped",
    )
    v.add_argument("--claims", action="append", default=[], metavar="FILE")
    v.add_argument("--format", choices=["text", "json", "csv"], default="text")
    v.add_argument("--max-order", type=_positive_int, default=MAX_ORDER)

    e = sub.add_parser("enumerate", help="signed colored-partition count")
    e.add_argument("ruleset", help="one of " + ", ".join(sorted(partitions.RULESETS)))
    e.add_argument("n", type=_int)
    e.add_argument("--list", action="store_true", dest="show_list")

    sub.add_parser("list", help="print the claim registry")
    return parser


def _too_many_digits() -> int:
    """Report output that holds an integer too long to print; converting one
    to text is the only ValueError that rendering a report or series raises."""
    limit = sys.get_int_max_str_digits()
    print(f"error: a coefficient has more than {limit} digits, "
          "the limit for printing an integer", file=sys.stderr)
    return 2


def _cmd_coeff(args) -> int:
    top = max(args.indices)
    try:
        mock_id = MockThetaId.from_name(args.name)
        (plan,) = within_cap([(Mock(mock_id.value), top + 1)], MAX_ORDER)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: index {top} {exc}", file=sys.stderr)
        return 2
    series = run(plan)
    print(" ".join(str(series.coefficient(n)) for n in args.indices))
    return 0


def _cmd_series(args) -> int:
    try:
        node = parse_expr(args.expr)
        (plan,) = within_cap([(node, args.order)], MAX_ORDER)
        series = run(plan)
    except PreconditionError as exc:
        print(f"error: expansion {exc}", file=sys.stderr)
        return 2
    except (ParseError, SeriesError, KeyError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    try:
        text = format_series(series)
    except ValueError:
        return _too_many_digits()
    print(text)
    return 0


def _claim_table(paths: list[str]) -> dict[str, Claim]:
    """The registry and the claims of each file, by id; a repeated id raises ValueError."""
    table = claims_mod.registry_by_id()
    source: dict[str, str] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for c in claims_mod.parse_claim_file(handle.read(), source=path):
                if c.id in source:
                    raise ValueError(f"claim id {c.id!r} is in both {source[c.id]} and {path}")
                if c.id in table:
                    raise ValueError(f"claim id {c.id!r} collides with a registry claim")
                source[c.id] = path
                table[c.id] = c
    return table


def _cmd_verify(args) -> int:
    try:
        table = _claim_table(args.claims)
    except (OSError, ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.claim == "all":
        to_run = list(table.values())
    elif args.claim in table:
        to_run = [table[args.claim]]
    else:
        print(f"error: unknown claim id {args.claim!r} (try 'qseries list')", file=sys.stderr)
        return 2

    reports = [
        verify(c, order=args.order, count=args.count, max_order=args.max_order) for c in to_run
    ]
    reports.sort(key=lambda r: r.claim_id)  # stable output contract: ordered by claim id
    summary, code = claims_mod.tally(reports)
    try:
        text = _render_reports(reports, args.format, summary)
    except ValueError:
        return _too_many_digits()
    print(text, end="")
    return code


def _render_reports(reports: list, fmt: str, summary: str) -> str:
    """The reports in ``fmt`` (text with the summary line, JSON or CSV), ending in a newline."""
    if fmt == "json":
        return claims_mod.reports_to_json(reports) + "\n"
    if fmt == "csv":
        return claims_mod.reports_to_csv(reports)
    lines = []
    for r in reports:
        line = f"{r.claim_id:24s} {r.status:7s} order={r.order:<6d} {r.elapsed_ms}ms"
        if r.first_failure is not None:
            f = r.first_failure
            line += f"  first n={f['n']} lhs={f['lhs']} rhs={f['rhs']}"
        if r.message:
            line += f"  [{r.message}]"
        lines.append(line + "\n")
    return "".join(lines) + f"-- {summary}\n"


def _cmd_enumerate(args) -> int:
    if args.ruleset not in partitions.RULESETS:
        print(f"error: unknown ruleset {args.ruleset!r}", file=sys.stderr)
        return 2
    rs = partitions.RULESETS[args.ruleset]
    # the count mode holds a list of n + 1 counts; the listing streams and holds none
    if not args.show_list and args.n + 1 > MAX_ORDER:
        print(f"error: enumeration needs order {args.n + 1}, beyond the cap {MAX_ORDER}",
              file=sys.stderr)
        return 2
    if args.show_list:
        total = 0
        for parts, sign in partitions.iter_colored_partitions(rs, args.n):
            total += sign
            rendered = " ".join(
                f"{value}{_COLOR_NAMES[color]}" + (f"*{mult}" if mult > 1 else "")
                for value, color, mult in parts
            ) or "(empty)"
            print(f"{'+' if sign > 0 else '-'} {rendered}")
        print(f"signed count = {total}")
    else:
        print(partitions.count_signed(rs, args.n)[args.n] if args.n >= 0 else 0)
    return 0


def _cmd_list(args) -> int:
    for c in claims_mod.registry():
        size = c.order or c.count or c.bound
        print(f"{c.id:24s} {c.kind.value:18s} [{size}] {c.cite}")
        if c.notes:
            print(f"{'':24s} note: {c.notes}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if args.command == "series" and args.expr is None:
            if len(extra) != 1 or not extra[0].startswith("-"):
                parser.error("the following arguments are required: expr")
            args.expr = extra.pop()
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "coeff": _cmd_coeff,
        "series": _cmd_series,
        "verify": _cmd_verify,
        "enumerate": _cmd_enumerate,
        "list": _cmd_list,
    }
    if args.command not in handlers:
        parser.print_usage(sys.stderr)
        return 2
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point it at devnull so the
        # flush at exit cannot raise again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
