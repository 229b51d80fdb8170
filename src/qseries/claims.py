"""The theorem registry and verification engine.

A :class:`Claim` is a declarative, finitely-checkable statement about the
coefficient streams: an identity between two expressions, a congruence on an
arithmetic progression, a whole congruence family, a recurrence (verified
both as a series identity and by literal nested summation), or a partition
interpretation (enumeration against mock coefficients).  Every series a
claim reads is a claim-language expression (a progression P(A*n + B) is
``AP(node, A, B)``; a direct summation reads its lhs progression and its
partition counts), so ``_plan`` plans every node it expands, at its order,
before any work, and the check runs those plans.

There is one way to build a claim from text: ``parse_claim_file``.
``registry()`` reads the built-in claim set with it from the packaged
``registry.claims``.  Each claim carries a citation label and a default order
or count chosen to run in seconds.  Some built-in claims do not hold as
stated; they are kept in the registry so the verifier reports their first
counterexamples, and each has a ``.corrected`` companion that passes
(``thm5.2``'s companion is ``thm5.2.gf``; see the notes fields).  The nine
direct summation routes a recurrence can name are a table of factors here:
each side is a scale times the product of some reads and naive theta
streams, summed by one convolution.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import time
import os
from typing import Iterable, Sequence

from . import expr as expr_mod
from . import mock as mock_mod
from . import partitions
from .expr import Expr, ParseError, Plan, parse_expr, plan, run, widest
from .ntheory import FAMILIES, FamilyIndex, PreconditionError, family_indices
from .records import Record


class ClaimKind(enum.Enum):
    IDENTITY = "identity"
    CONGRUENCE = "congruence"
    CONGRUENCE_FAMILY = "congruence-family"
    RECURRENCE = "recurrence"
    INTERPRETATION = "interpretation"


class Claim(Record):
    id: str
    kind: ClaimKind
    cite: str
    notes: str
    # identity / recurrence series route
    lhs: Expr | None
    rhs: Expr | None
    order: int
    # congruence
    expr: Expr | None
    A: int
    B: int
    M: int
    count: int
    # congruence family
    family: str | None
    p: int
    alpha: int
    # interpretation
    mock: str | None
    ruleset: str | None
    bound: int
    dp_order: int
    # recurrence direct route: the series it reads, each at bound + 1, and
    # its lhs and rhs factors (see _DIRECT_ROUTES), summed for n = 0..bound
    direct_reads: tuple[Expr, ...]
    direct: tuple[_Side, _Side] | None

    def __init__(
        self,
        id: str,
        kind: ClaimKind,
        cite: str = "",
        notes: str = "",
        lhs: Expr | None = None,
        rhs: Expr | None = None,
        order: int = 0,
        expr: Expr | None = None,
        A: int = 1,
        B: int = 0,
        M: int = 0,
        count: int = 0,
        family: str | None = None,
        p: int = 0,
        alpha: int = 0,
        mock: str | None = None,
        ruleset: str | None = None,
        bound: int = 0,
        dp_order: int = 0,
        direct_reads: tuple[Expr, ...] = (),
        direct: tuple[_Side, _Side] | None = None,
    ):
        self.id = id
        self.kind = kind
        self.cite = cite
        self.notes = notes
        self.lhs = lhs
        self.rhs = rhs
        self.order = order
        self.expr = expr
        self.A = A
        self.B = B
        self.M = M
        self.count = count
        self.family = family
        self.p = p
        self.alpha = alpha
        self.mock = mock
        self.ruleset = ruleset
        self.bound = bound
        self.dp_order = dp_order
        self.direct_reads = direct_reads
        self.direct = direct


class VerificationReport(Record):
    claim_id: str
    status: str  # pass | fail | skipped | error
    order: int
    first_failure: dict | None
    message: str
    elapsed_ms: int

    def __init__(
        self,
        claim_id: str,
        status: str,
        order: int = 0,
        first_failure: dict | None = None,
        message: str = "",
        elapsed_ms: int = 0,
    ):
        self.claim_id = claim_id
        self.status = status
        self.order = order
        self.first_failure = first_failure
        self.message = message
        self.elapsed_ms = elapsed_ms

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "status": self.status,
            "order": self.order,
            "first_failure": self.first_failure,
            "message": self.message,
            "elapsed_ms": self.elapsed_ms,
        }


MAX_ORDER = 50_000  # default cap on the deepest expansion a command may demand


def within_cap(reads: Sequence[tuple[Expr, int]], max_order: int, advice: str = "") -> list[Plan]:
    """Plan each ``(series, order)`` read and check every node of the plans
    against the cap, evaluating nothing; return the plans.  A node spanning
    more than ``max_order`` coefficients (``expr.widest``) raises
    PreconditionError, its message ending in ``advice``."""
    plans = [plan(node, o) for node, o in reads]
    deepest = max(map(widest, plans), default=0)
    if deepest > max_order:
        # str() refuses an integer of more than 4300 digits
        shown = deepest if deepest < 10**4000 else "above 10^4000"
        raise PreconditionError(f"needs order {shown}, beyond the cap {max_order}{advice}")
    return plans


def _plan(
    claim: Claim, order: int | None, count: int | None, max_order: int
) -> tuple[int, list[tuple[Expr, int]], list[Plan], list[FamilyIndex]]:
    """The order a claim's report states, the ``(series, order)`` reads its
    check evaluates, in that sequence (a recurrence's direct summation reads
    at bound + 1, after both sides), their plans, checked against the cap by
    ``within_cap``, and a congruence's progressions, one per read (empty for
    other kinds).

    A non-positive order, count, step or congruence range, a modulus below 2,
    or a negative enumeration bound raises ValueError: a pass would be vacuous.
    """
    kind = claim.kind
    indices: list[FamilyIndex] = []
    if kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        target = _positive(claim, "order", claim.order if order is None else order)
        reads = [(claim.lhs, target), (claim.rhs, target)]
        reads += [(node, claim.bound + 1) for node in claim.direct_reads]
    elif kind in (ClaimKind.CONGRUENCE, ClaimKind.CONGRUENCE_FAMILY):
        spec = FAMILIES.get(claim.family)
        # before family_indices tests p and raises it to full powers: each
        # family's last progression reads past its step, so a step past the
        # cap is a demand past it
        if spec and claim.p >= 2 and spec.step_exceeds(claim.p, claim.alpha, max_order):
            raise PreconditionError(
                f"progression step {spec.c}*p^(2*alpha+2) for p = {claim.p}, "
                f"alpha = {claim.alpha} is beyond the cap {max_order}; rerun with a higher cap"
            )
        node, indices, c = _progressions(claim, count)
        target = _positive(claim, "order", max(ix.A * (c - 1) + ix.B for ix in indices) + 1)
        reads = [(_progression(node, ix.A, ix.B), c) for ix in indices]
    else:
        bound = _bound(claim, count)
        target = _positive(claim, "order", claim.dp_order or bound + 1)
        name = mock_mod.MockThetaId.from_name(claim.mock).value
        mock = _progression(expr_mod.Mock(name), _positive(claim, "modulus A", claim.A), claim.B)
        if claim.ruleset not in partitions.RULESETS:
            raise KeyError(f"unknown ruleset {claim.ruleset!r}")
        reads = [(mock, max(bound + 1, target)), (expr_mod.RulesetRef(claim.ruleset), target)]
    plans = within_cap(reads, max_order, "; rerun with a higher cap")
    return target, reads, plans, indices


def _positive(claim: Claim, field: str, value: int) -> int:
    if value <= 0:
        raise ValueError(f"claim {claim.id!r}: {field} must be positive, got {value}")
    return value


def _bound(claim: Claim, count: int | None) -> int:
    """An interpretation's enumeration bound: the claim's, or ``count`` if given."""
    bound = claim.bound if count is None else count
    if bound < 0:
        raise ValueError(f"claim {claim.id!r}: bound must be nonnegative, got {bound}")
    return bound


def _progressions(claim: Claim, count: int | None) -> tuple[Expr, list[FamilyIndex], int]:
    """A congruence or a family as one series, its progressions and their count.

    A congruence is a family with the single progression ``A*n + B``.
    """
    c = _positive(claim, "count", claim.count if count is None else count)
    if claim.kind is ClaimKind.CONGRUENCE:
        if claim.M < 2:  # mod 1 checks nothing, mod 0 divides by zero
            raise ValueError(f"claim {claim.id!r}: modulus M must be at least 2, got {claim.M}")
        return claim.expr, [FamilyIndex(_positive(claim, "step A", claim.A), claim.B, claim.M)], c
    indices = family_indices(claim.family, claim.p, claim.alpha)
    node = claim.expr or expr_mod.Mock(FAMILIES[claim.family].mock)
    return node, indices, c


def _progression(node: Expr, A: int, B: int) -> Expr:
    """``P(A*n + B)`` of the series ``node``: ``AP(node, A, B)``, or
    ``q^-k*AP(node, A, B - k*A)`` for the k = floor(B/A) that brings B below A."""
    k, r = divmod(B, A)
    ap = expr_mod.Ap(node, A, r)
    return expr_mod.BinOp("*", expr_mod.Mono(-k), ap) if k else ap


def _first_difference(pairs: Iterable[tuple[int, int]]) -> dict | None:
    """``{"n", "lhs", "rhs"}`` at the first ``(lhs, rhs)`` pair, counted from
    n = 0, whose sides differ, or None if they all agree."""
    for n, (a, b) in enumerate(pairs):
        if a != b:
            return {"n": n, "lhs": a, "rhs": b}
    return None


def verify(
    claim: Claim,
    *,
    order: int | None = None,
    count: int | None = None,
    max_order: int = MAX_ORDER,
) -> VerificationReport:
    """Run one claim and produce a machine-readable report.

    A pass or fail states the claim on exactly the requested range, which is
    the report's ``order``.  Precondition failures (non-qualifying primes, a
    deepest expansion beyond ``max_order``) yield a skipped report, never a
    vacuous pass; an evaluation that raises yields an error report.
    """
    start = time.perf_counter()
    try:
        report = _verify_inner(claim, order, count, max_order)
    except PreconditionError as exc:
        report = VerificationReport(claim.id, "skipped", message=str(exc))
    except (KeyError, ValueError) as exc:
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        report = VerificationReport(claim.id, "error", message=str(text))
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report


def _verify_inner(
    claim: Claim, order: int | None, count: int | None, max_order: int
) -> VerificationReport:
    target, reads, plans, indices = _plan(claim, order, count, max_order)
    # the planned reads, each run when the check first needs it
    series = map(run, plans)

    def fail(at: int, failure: dict, message: str = "") -> VerificationReport:
        return VerificationReport(claim.id, "fail", at, failure, message)

    if claim.kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        lhs, rhs = next(series), next(series)
        same, n = lhs.agrees_with(rhs)
        if not same:
            return fail(target, {"n": n, "lhs": lhs.coefficient(n), "rhs": rhs.coefficient(n)})
        if claim.direct is not None:
            coeffs = [s.coefficients(claim.bound + 1) for s in series]
            sums = (_direct_sum(claim.bound, coeffs, *side) for side in claim.direct)
            failure = _first_difference(zip(*sums))
            if failure is not None:
                return fail(target, failure, "direct summation route disagrees")
        return VerificationReport(claim.id, "pass", target)

    if claim.kind in (ClaimKind.CONGRUENCE, ClaimKind.CONGRUENCE_FAMILY):
        # one read per progression: coefficient n of read j is P(A_j*n + B_j)
        for j, (ix, (_, c), s) in enumerate(zip(indices, reads, series), start=1):
            failure = _first_difference((s.coefficient(n) % ix.M, 0) for n in range(c))
            if failure is not None:
                family = claim.kind is ClaimKind.CONGRUENCE_FAMILY
                message = f"progression j={j} (A={ix.A}, B={ix.B}, M={ix.M})" if family else ""
                return fail(target, failure, message)
        return VerificationReport(claim.id, "pass", target)

    rs = partitions.RULESETS[claim.ruleset]
    bound = _bound(claim, count)
    coeffs = next(series)  # serves both routes
    failure = _first_difference(
        zip(partitions.count_signed(rs, bound), map(coeffs.coefficient, range(bound + 1)))
    )
    if failure is not None:
        return fail(bound, failure, "backtracking enumeration disagrees")
    gf = next(series)  # only once the enumeration agrees
    failure = _first_difference((gf.coefficient(n), coeffs.coefficient(n)) for n in range(target))
    if failure is not None:
        return fail(target, failure, "generating function route disagrees")
    return VerificationReport(claim.id, "pass", target)


# -- the direct summation routes of the recurrence claims ---------------------
# A recurrence's second check sums each side literally, with its own naive
# theta streams, so it shares no generator with the series route.  A route
# lists the series it reads, each at _DIRECT_BOUND + 1 (its lhs progression P,
# then partition counts), and per side a scale and the factors it multiplies:
# (i, t) is read i with its coefficient k at q^(t*k), and (kind, s) is a theta
# stream of _stream_terms.

_Side = tuple  # (scale, factor, ...)

_DIRECT_BOUND = 60
_DIRECT_ROUTES: dict[str, tuple[tuple[str, ...], _Side, _Side]] = {
    "thm3.4": (("AP(mock(v),2,1)", "l(4)/l(1)"), (1, (0, 1)), (1, (1, 1), ("psi", 2))),
    # v(6n - 9m^2 -+ 3m + 5) = pv(n - m(3m +- 1)/2); pbar(c) sits at q^(2c)
    "thm3.5": (("AP(mock(v),6,5)", "(l(2)/l(1))^2", "l(2)/l(1)^2"),
               (1, (0, 1), ("pentagonal", 1)), (3, (1, 1), (2, 2), ("jacobi", 6))),
    "thm4.4": (("AP(mock(sigma),2,1)", "(l(2)/l(1))^2"), (1, (0, 1)), (1, (1, 1), ("psi", 3))),
    # beta(3n - 3k(k+1)/2 + 2) = pb(n - k(k+1)/2)
    "thm5.4": (("AP(mock(beta),3,2)", "l(2)/l(1)^2"),
               (1, (0, 1), ("psi", 1)), (2, (1, 1), ("jacobi", 6))),
    # The displayed statement writes a one-copy overpartition weight, but the
    # generating function forces two copies; the two-copy reading is used here.
    # beta(9(n - m^2 - m) + 8) = pb(n - m^2 - m)
    "thm5.5": (("AP(mock(beta),9,8)", "(l(2)/l(1)^2)^2"),
               (1, (0, 1), ("jacobi", 2)), (6, (1, 1), ("jacobi", 3), ("jacobi", 6))),
    # beta(3n - 3m(3m -+ 1) + 1) = pb(n - m(3m -+ 1))
    "thm5.6": (("AP(mock(beta),3,1)", "l(2)/l(1)^2"),
               (1, (0, 1), ("pentagonal", 2)), (1, (1, 1), ("jacobi", 3))),
    "thm6.2": (("AP(mock(lambda),2,0)", "(l(2)/l(1))^3"), (1, (0, 1)), (1, (1, 1), ("phi", 3))),
    "thm6.3": (("AP(mock(lambda),6,2)", "(l(2)/l(1)^2)^3"),
               (1, (0, 1)), (3, (1, 1), ("jacobi", 3), ("phi", 3))),
    # lambda(6n - 3m(m+1) + 4) = pl(n - m(m+1)/2)
    "thm6.4": (("AP(mock(lambda),6,4)", "(l(2)/l(1))^2"),
               (1, (0, 1), ("jacobi", 1)), (6, (1, 1), ("jacobi", 6), ("phi", 3))),
}

# the theta streams of partitions.theta_stream, from their defining sums: term
# m's exponent at scale 1 and its weight, and whether m runs over every integer
# or only m >= 0
_STREAMS = {
    "pentagonal": (lambda m: m * (3 * m - 1) // 2, lambda m: (-1) ** (m % 2), True),
    "jacobi": (lambda m: m * (m + 1) // 2, lambda m: (-1) ** (m % 2) * (2 * m + 1), False),
    "phi": (lambda m: m * m, lambda m: (-1) ** (m % 2), True),
    "psi": (lambda m: m * (m + 1) // 2, lambda m: 1, False),
}


def _stream_terms(kind: str, s: int, bound: int) -> list[tuple[int, int]]:
    """The ``(exponent, weight)`` terms of the theta stream ``kind`` at scale s
    with exponent at most ``bound``; term m's exponent is at least s*|m|."""
    exponent, weight, every_m = _STREAMS[kind]
    ms = range(-bound, bound + 1) if every_m else range(bound + 1)
    return [(s * exponent(m), weight(m)) for m in ms if s * exponent(m) <= bound]


def _direct_sum(bound: int, coeffs: Sequence[list[int]], scale: int, *factors) -> list[int]:
    """One side of a direct route at n = 0..bound: ``scale`` times the nested
    sum, over one term of each factor with exponents adding up to n, of the
    product of their weights.  ``coeffs[i]`` holds read i at 0..bound."""
    total = [scale] + [0] * bound
    for source, s in factors:
        if isinstance(source, int):
            terms = [(s * k, c) for k, c in enumerate(coeffs[source][: bound // s + 1])]
        else:
            terms = _stream_terms(source, s, bound)
        product = [0] * (bound + 1)
        for i, a in enumerate(total):
            if a:
                for e, w in terms:
                    if i + e <= bound:
                        product[i + e] += a * w
        total = product
    return total


# -- the registry -------------------------------------------------------------

_registry_cache: list[Claim] | None = None


def registry() -> list[Claim]:
    """The built-in claim set: the packaged ``registry.claims``, in file order."""
    global _registry_cache
    if _registry_cache is None:
        path = os.path.join(os.path.dirname(__file__), "registry.claims")
        with open(path, encoding="utf-8") as handle:
            _registry_cache = parse_claim_file(handle.read(), "registry.claims")
    return list(_registry_cache)


def registry_by_id() -> dict[str, Claim]:
    return {c.id: c for c in registry()}


# -- claim files --------------------------------------------------------------

_COMMON_FIELDS = {"id", "type", "cite", "notes"}
# the fields each claim type reads, besides the common ones
_KIND_FIELDS = {
    ClaimKind.IDENTITY: {"lhs", "rhs", "order"},
    ClaimKind.RECURRENCE: {"lhs", "rhs", "order", "direct"},
    ClaimKind.CONGRUENCE: {"expr", "A", "B", "M", "count"},
    ClaimKind.CONGRUENCE_FAMILY: {"family", "p", "alpha", "count"},
    ClaimKind.INTERPRETATION: {"mock", "ruleset", "A", "B", "bound", "order"},
}
_CLAIM_FIELDS = _COMMON_FIELDS.union(*_KIND_FIELDS.values())


def parse_claim_file(text: str, source: str = "<claims>") -> list[Claim]:
    """Parse the line-oriented claim file format.

    Records start with a ``[claim]`` line followed by ``key=value`` lines;
    ``#`` starts a comment.  Every record takes ``id``, ``type``, ``cite`` and
    ``notes``, plus the fields of its type.  A recurrence may name one of the
    direct summation routes (``direct``), which fixes the series that route
    reads and its bound.  Returns fully-built claims.

    Malformed input raises ValueError naming the source and the offending
    line (an unknown or repeated field, a duplicate claim id), or the claim
    and field: a missing field or one its type does not read, a non-integer,
    an unparsable expression, an unknown route, or an order, count or
    progression step A below 1 (a bound or a progression offset B below 0, a
    modulus M below 2), which would check nothing.
    """
    records: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[claim]":
            current = {}
            records.append(current)
            continue
        if current is None:
            raise ValueError(f"{source}:{lineno}: field outside a [claim] record")
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CLAIM_FIELDS:
            raise ValueError(f"{source}:{lineno}: unknown field {key!r}")
        if key in current:
            raise ValueError(f"{source}:{lineno}: repeated field {key!r}")
        if key == "id":
            if value in ids:
                raise ValueError(f"{source}:{lineno}: duplicate claim id {value!r}")
            ids.add(value)
        current[key] = value
    return [_claim_from_record(r, source) for r in records]


def _claim_from_record(rec: dict[str, str], source: str) -> Claim:
    try:
        cid = rec["id"]
        kind = ClaimKind(rec["type"])
    except KeyError as exc:
        raise ValueError(f"{source}: claim record missing {exc}") from None
    except ValueError:
        raise ValueError(f"{source}: unknown claim type {rec.get('type')!r}") from None
    for key in rec:
        if key not in _COMMON_FIELDS and key not in _KIND_FIELDS[kind]:
            raise ValueError(
                f"{source}: claim {cid!r} field {key!r} is not read by {kind.value} claims"
            )

    def text(key: str) -> str:
        if key not in rec:
            raise ValueError(f"{source}: claim {cid!r} missing field {key!r}")
        return rec[key]

    def num(key: str, default: int | None = None, least: int | None = None) -> int:
        if key not in rec and default is not None:
            return default
        value = text(key)
        try:
            value = int(value)
        except ValueError:
            digits = value[1:] if value[:1] in ("+", "-") else value
            if digits.isdecimal():  # past the interpreter's limit on int() of a string
                raise ValueError(
                    f"{source}: claim {cid!r} field {key!r}: "
                    f"integer of {len(digits)} digits is too long"
                ) from None
            raise ValueError(f"{source}: claim {cid!r} field {key!r} is not an integer") from None
        if least is not None and value < least:
            raise ValueError(
                f"{source}: claim {cid!r} field {key!r} must be at least {least}, got {value}"
            )
        return value

    def expr(key: str) -> Expr:
        try:
            return parse_expr(text(key))
        except ParseError as exc:
            raise ValueError(f"{source}: claim {cid!r} field {key!r}: {exc}") from None

    claim = Claim(cid, kind, cite=rec.get("cite", ""), notes=rec.get("notes", ""))
    if kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        claim.lhs, claim.rhs = expr("lhs"), expr("rhs")
        claim.order = num("order", 200, least=1)
    if kind is ClaimKind.RECURRENCE and "direct" in rec:
        if rec["direct"] not in _DIRECT_ROUTES:
            raise ValueError(
                f"{source}: claim {cid!r} field 'direct': unknown route {rec['direct']!r}"
            )
        reads, *sides = _DIRECT_ROUTES[rec["direct"]]
        claim.direct_reads = tuple(map(parse_expr, reads))
        claim.direct = tuple(sides)
        claim.bound = _DIRECT_BOUND
    if kind is ClaimKind.CONGRUENCE:
        claim.expr = expr("expr")
        claim.A, claim.B = num("A", 1, least=1), num("B", 0, least=0)
        claim.M, claim.count = num("M", least=2), num("count", 100, least=1)
    if kind is ClaimKind.CONGRUENCE_FAMILY:
        claim.family, claim.p, claim.alpha = text("family"), num("p"), num("alpha", 0)
        claim.count = num("count", 5, least=1)
    if kind is ClaimKind.INTERPRETATION:
        claim.mock, claim.ruleset = text("mock"), text("ruleset")
        claim.A, claim.B = num("A", 1, least=1), num("B", 0, least=0)
        claim.bound, claim.dp_order = num("bound", 20, least=0), num("order", 0, least=1)
    return claim


# -- report serialisation ------------------------------------------------------

def tally(reports: Sequence[VerificationReport]) -> tuple[str, int]:
    """Status counts as ``"70 pass, 7 fail, 0 skipped, 0 error"``, and the exit
    code: 2 if any report is an error, 1 if any fails, else 0."""
    statuses = ("pass", "fail", "skipped", "error")
    counts = {s: sum(1 for r in reports if r.status == s) for s in statuses}
    text = ", ".join(f"{counts[s]} {s}" for s in statuses)
    return text, 2 if counts["error"] else 1 if counts["fail"] else 0


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "status", "order", "first_n", "elapsed_ms"])
    for r in reports:
        first = "" if r.first_failure is None else r.first_failure["n"]
        writer.writerow([r.claim_id, r.status, r.order, first, r.elapsed_ms])
    return buf.getvalue()


__all__ = [
    "Claim", "ClaimKind", "MAX_ORDER", "VerificationReport", "verify", "registry",
    "registry_by_id", "parse_claim_file", "reports_to_json", "reports_to_csv",
    "tally", "within_cap",
]
