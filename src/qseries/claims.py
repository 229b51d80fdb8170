"""The theorem registry and verification engine.

A :class:`Claim` is a declarative, finitely-checkable statement about the
coefficient streams: an identity between two expressions, a congruence on an
arithmetic progression, a whole congruence family, a recurrence (verified
both as a series identity and by literal nested summation), or a partition
interpretation (enumeration against mock coefficients).  Every series a
claim reads is a claim-language expression (a progression P(A*n + B) is
``AP(node, A, B)``; a direct summation reads its lhs progression and its
partition counts), so ``_plan`` knows each leaf it expands, and at what
order, before any work.

``registry()`` returns the built-in claim set.  Each claim carries a citation
label and a default order or count chosen to run in seconds.  Some built-in
claims do not hold as stated; they are kept in the registry so the verifier
reports their first counterexamples, and each has a ``.corrected`` companion
that passes (``thm5.2``'s companion is ``thm5.2.gf``; see the notes fields).
"""

from __future__ import annotations

import csv
import enum
import io
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import expr as expr_mod
from . import mock as mock_mod
from . import partitions
from .expr import Expr, ParseError, eval_expr, leaf_demands, parse_expr, to_text
from .ntheory import FAMILIES, FamilyIndex, PreconditionError, family_indices


class ClaimKind(enum.Enum):
    IDENTITY = "identity"
    CONGRUENCE = "congruence"
    CONGRUENCE_FAMILY = "congruence-family"
    RECURRENCE = "recurrence"
    INTERPRETATION = "interpretation"


@dataclass
class Claim:
    id: str
    kind: ClaimKind
    cite: str = ""
    notes: str = ""
    # identity / recurrence series route
    lhs: Expr | None = None
    rhs: Expr | None = None
    order: int = 0
    # congruence
    expr: Expr | None = None
    A: int = 1
    B: int = 0
    M: int = 0
    count: int = 0
    # congruence family
    family: str | None = None
    p: int = 0
    alpha: int = 0
    # interpretation
    mock: str | None = None
    ruleset: str | None = None
    bound: int = 0
    dp_order: int = 0
    # recurrence direct route: the series it reads, each at bound + 1, and
    # (bound, their coefficient functions) -> lhs and rhs for n = 0..bound
    direct_reads: tuple[Expr, ...] = ()
    direct: Callable[..., tuple[list[int], list[int]]] | None = None


@dataclass
class VerificationReport:
    claim_id: str
    status: str  # pass | fail | skipped | error
    order: int = 0
    first_failure: dict | None = None
    message: str = ""
    elapsed_ms: int = 0

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


def within_cap(
    reads: Sequence[tuple[Expr, int]], max_order: int, advice: str = ""
) -> dict[Expr, int]:
    """The merged leaf demands of the ``(series, order)`` reads, evaluating nothing.

    A read or leaf deeper than ``max_order`` raises PreconditionError, its
    message ending in ``advice``.
    """
    demands: dict[Expr, int] = {}
    for node, order in reads:
        for leaf, o in leaf_demands(node, order).items():
            demands[leaf] = max(demands.get(leaf, o), o)
    deepest = max([*(o for _, o in reads), *demands.values()], default=0)
    if deepest > max_order:
        raise PreconditionError(f"needs order {deepest}, beyond the cap {max_order}{advice}")
    return demands


def _plan(
    claim: Claim, order: int | None, count: int | None, max_order: int
) -> tuple[int, list[tuple[Expr, int]], dict[Expr, int]]:
    """The order a claim's report states, the ``(series, order)`` reads its
    check evaluates, in that sequence (a recurrence's direct summation reads
    at bound + 1, after both sides), and their leaf demands within the cap.

    A non-positive order, count, step or congruence range, a modulus below 2,
    or a negative enumeration bound raises ValueError: a pass would be vacuous.
    """
    kind = claim.kind
    if kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        target = _positive(claim, "order", claim.order if order is None else order)
        reads = [(claim.lhs, target), (claim.rhs, target)]
        reads += [(node, claim.bound + 1) for node in claim.direct_reads]
    elif kind in (ClaimKind.CONGRUENCE, ClaimKind.CONGRUENCE_FAMILY):
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
    return target, reads, within_cap(reads, max_order, "; rerun with a higher cap")


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


def verify_all(
    claims: Sequence[Claim],
    *,
    order: int | None = None,
    count: int | None = None,
    max_order: int = MAX_ORDER,
) -> list[VerificationReport]:
    """Verify several claims, expanding each mock stream once for the run.

    The claims' plans are merged first, and every mock stream is expanded
    once at the deepest order any claim within the cap asks of it; the
    ``verify`` calls that follow read prefixes of that memoised expansion.
    Reports come back in the order of ``claims`` and equal what ``verify``
    gives for each claim alone, apart from ``elapsed_ms``.
    """
    mocks: list[tuple[Expr, int]] = []
    for claim in claims:
        try:
            demands = _plan(claim, order, count, max_order)[2]
        except (KeyError, ValueError):
            continue  # verify reports it
        mocks += [(leaf, o) for leaf, o in demands.items() if isinstance(leaf, expr_mod.Mock)]
    for leaf, o in within_cap(mocks, max_order).items():
        eval_expr(leaf, o)
    return [verify(c, order=order, count=count, max_order=max_order) for c in claims]


def _verify_inner(
    claim: Claim, order: int | None, count: int | None, max_order: int
) -> VerificationReport:
    target, reads, _ = _plan(claim, order, count, max_order)
    # the planned reads, each evaluated when the check first needs it
    series = (eval_expr(node, o) for node, o in reads)

    def fail(at: int, failure: dict, message: str = "") -> VerificationReport:
        return VerificationReport(claim.id, "fail", at, failure, message)

    if claim.kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        lhs, rhs = next(series), next(series)
        same, n = lhs.agrees_with(rhs)
        if not same:
            return fail(target, {"n": n, "lhs": lhs.coefficient(n), "rhs": rhs.coefficient(n)})
        if claim.direct is not None:
            sums = claim.direct(claim.bound, *(s.coefficient for s in series))
            failure = _first_difference(zip(*sums))
            if failure is not None:
                return fail(target, failure, "direct summation route disagrees")
        return VerificationReport(claim.id, "pass", target)

    if claim.kind in (ClaimKind.CONGRUENCE, ClaimKind.CONGRUENCE_FAMILY):
        _, indices, c = _progressions(claim, count)
        # one read per progression: coefficient n of read j is P(A_j*n + B_j)
        for j, (ix, s) in enumerate(zip(indices, series), start=1):
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
        (partitions.count_signed(rs, n), coeffs.coefficient(n)) for n in range(bound + 1)
    )
    if failure is not None:
        return fail(bound, failure, "backtracking enumeration disagrees")
    gf = next(series)  # only once the enumeration agrees
    failure = _first_difference((gf.coefficient(n), coeffs.coefficient(n)) for n in range(target))
    if failure is not None:
        return fail(target, failure, "generating function route disagrees")
    return VerificationReport(claim.id, "pass", target)


# -- direct summation evaluators for the recurrence claims -------------------
# Each takes the bound, then the coefficient functions of the claim's direct
# reads: its lhs progression P (P(k) = 0 for k < 0), then its partition counts.

_Coeffs = Callable[[int], int]
_Sums = tuple[list[int], list[int]]


def _direct_thm3_4(bound: int, pv: _Coeffs, a4: _Coeffs) -> _Sums:
    lhs = [pv(n) for n in range(bound + 1)]
    rhs = []
    for n in range(bound + 1):
        total, k = 0, 0
        while n - k * (k + 1) >= 0:
            total += a4(n - k * (k + 1))
            k += 1
        rhs.append(total)
    return lhs, rhs


def _direct_thm3_5(bound: int, pv: _Coeffs, p2d: _Coeffs, pbar: _Coeffs) -> _Sums:
    # v(6n - 9m^2 -+ 3m + 5) = pv(n - m(3m +- 1)/2)
    lhs = []
    for n in range(bound + 1):
        total, m = pv(n), 1
        while n - m * (3 * m - 1) // 2 >= 0:
            sign = -1 if m % 2 else 1
            total += sign * (pv(n - m * (3 * m + 1) // 2) + pv(n - m * (3 * m - 1) // 2))
            m += 1
        lhs.append(total)
    rhs = []
    for n in range(bound + 1):
        total, t = 0, 0
        while n - 3 * t * t - 3 * t >= 0:
            sign = (-1 if t % 2 else 1) * (2 * t + 1)
            for c in range((n - 3 * t * t - 3 * t) // 2 + 1):
                total += sign * p2d(n - 3 * t * t - 3 * t - 2 * c) * pbar(c)
            t += 1
        rhs.append(3 * total)
    return lhs, rhs


def _direct_thm4_4(bound: int, ps: _Coeffs, p2d: _Coeffs) -> _Sums:
    lhs = [ps(n) for n in range(bound + 1)]
    rhs = []
    for n in range(bound + 1):
        total, k = 0, 0
        while n - 3 * k * (k + 1) // 2 >= 0:
            total += p2d(n - 3 * k * (k + 1) // 2)
            k += 1
        rhs.append(total)
    return lhs, rhs


def _direct_thm5_4(bound: int, pb: _Coeffs, pbar: _Coeffs) -> _Sums:
    # beta(3n - 3k(k+1)/2 + 2) = pb(n - k(k+1)/2)
    lhs = []
    for n in range(bound + 1):
        total, k = 0, 0
        while n - k * (k + 1) // 2 >= 0:
            total += pb(n - k * (k + 1) // 2)
            k += 1
        lhs.append(total)
    rhs = []
    for n in range(bound + 1):
        total, m = 0, 0
        while n - 3 * m * (m + 1) >= 0:
            total += 2 * (-1 if m % 2 else 1) * (2 * m + 1) * pbar(n - 3 * m * (m + 1))
            m += 1
        rhs.append(total)
    return lhs, rhs


def _direct_thm5_5(bound: int, pb: _Coeffs, pbar2: _Coeffs) -> _Sums:
    # The displayed statement writes a one-copy overpartition weight, but the
    # generating function forces two copies; the two-copy reading is used here.
    # beta(9(n - m^2 - m) + 8) = pb(n - m^2 - m)
    lhs = []
    for n in range(bound + 1):
        total, m = 0, 0
        while n - m * m - m >= 0:
            total += (-1 if m % 2 else 1) * (2 * m + 1) * pb(n - m * m - m)
            m += 1
        lhs.append(total)
    rhs = []
    for n in range(bound + 1):
        total, k = 0, 0
        while n - 3 * k * (k + 1) // 2 >= 0:
            l = 0
            while n - 3 * k * (k + 1) // 2 - 3 * l * (l + 1) >= 0:
                sign = -1 if (k + l) % 2 else 1
                total += sign * (2 * k + 1) * (2 * l + 1) * pbar2(
                    n - 3 * k * (k + 1) // 2 - 3 * l * (l + 1)
                )
                l += 1
            k += 1
        rhs.append(6 * total)
    return lhs, rhs


def _direct_thm5_6(bound: int, pb: _Coeffs, pbar: _Coeffs) -> _Sums:
    # beta(3n - 3m(3m -+ 1) + 1) = pb(n - m(3m -+ 1))
    lhs = []
    for n in range(bound + 1):
        total, m = pb(n), 1
        while n - m * (3 * m - 1) >= 0:
            sign = -1 if m % 2 else 1
            total += sign * (pb(n - m * (3 * m + 1)) + pb(n - m * (3 * m - 1)))
            m += 1
        lhs.append(total)
    rhs = []
    for n in range(bound + 1):
        total, k = 0, 0
        while n - 3 * k * (k + 1) // 2 >= 0:
            total += (-1 if k % 2 else 1) * (2 * k + 1) * pbar(n - 3 * k * (k + 1) // 2)
            k += 1
        rhs.append(total)
    return lhs, rhs


def _direct_thm6_2(bound: int, pl: _Coeffs, p3d: _Coeffs) -> _Sums:
    lhs = [pl(n) for n in range(bound + 1)]
    rhs = []
    for n in range(bound + 1):
        total = p3d(n)
        k = 1
        while n - 3 * k * k >= 0:
            total += 2 * (-1 if k % 2 else 1) * p3d(n - 3 * k * k)
            k += 1
        rhs.append(total)
    return lhs, rhs


def _direct_thm6_3(bound: int, pl: _Coeffs, pbar3: _Coeffs) -> _Sums:
    lhs = [pl(n) for n in range(bound + 1)]
    rhs = []
    for n in range(bound + 1):
        total, l = 0, 0
        while n - 3 * l * (l + 1) // 2 >= 0:
            sl = (-1 if l % 2 else 1) * (2 * l + 1)
            total += 3 * sl * pbar3(n - 3 * l * (l + 1) // 2)
            k = 1
            while n - 3 * k * k - 3 * l * (l + 1) // 2 >= 0:
                sk = -1 if k % 2 else 1
                total += 6 * sl * sk * pbar3(n - 3 * k * k - 3 * l * (l + 1) // 2)
                k += 1
            l += 1
        rhs.append(total)
    return lhs, rhs


def _direct_thm6_4(bound: int, pl: _Coeffs, p2d: _Coeffs) -> _Sums:
    # lambda(6n - 3m(m+1) + 4) = pl(n - m(m+1)/2)
    lhs = []
    for n in range(bound + 1):
        total, m = 0, 0
        while n - m * (m + 1) // 2 >= 0:
            total += (-1 if m % 2 else 1) * (2 * m + 1) * pl(n - m * (m + 1) // 2)
            m += 1
        lhs.append(total)
    rhs = []
    for n in range(bound + 1):
        total, l = 0, 0
        while n - 3 * l * (l + 1) >= 0:
            sl = (-1 if l % 2 else 1) * (2 * l + 1)
            total += 6 * sl * p2d(n - 3 * l * (l + 1))
            k = 1
            while n - 3 * k * k - 3 * l * (l + 1) >= 0:
                sk = -1 if k % 2 else 1
                total += 12 * sl * sk * p2d(n - 3 * k * k - 3 * l * (l + 1))
                k += 1
            l += 1
        rhs.append(total)
    return lhs, rhs


# -- the registry -------------------------------------------------------------

def _identity(cid, lhs, rhs, order, cite, notes="") -> Claim:
    return Claim(
        cid, ClaimKind.IDENTITY, cite=cite, notes=notes,
        lhs=parse_expr(lhs), rhs=parse_expr(rhs), order=order,
    )


def _congruence(cid, text, A, B, M, count, cite, notes="") -> Claim:
    return Claim(
        cid, ClaimKind.CONGRUENCE, cite=cite, notes=notes,
        expr=parse_expr(text), A=A, B=B, M=M, count=count,
    )


def _recurrence(cid, lhs, rhs, order, bound, direct, reads, cite, notes="") -> Claim:
    return Claim(
        cid, ClaimKind.RECURRENCE, cite=cite, notes=notes,
        lhs=parse_expr(lhs), rhs=parse_expr(rhs), order=order,
        bound=bound, direct=direct, direct_reads=tuple(map(parse_expr, reads)),
    )


def _interpretation(cid, mock, A, B, ruleset, bound, dp_order, cite, notes="") -> Claim:
    return Claim(
        cid, ClaimKind.INTERPRETATION, cite=cite, notes=notes,
        mock=mock, A=A, B=B, ruleset=ruleset, bound=bound, dp_order=dp_order,
    )


def _family(cid, family, p, alpha, count, cite, notes="") -> Claim:
    return Claim(
        cid, ClaimKind.CONGRUENCE_FAMILY, cite=cite, notes=notes,
        family=family, p=p, alpha=alpha, count=count,
    )


def _times_q(k: int, text: str) -> str:
    return text if k == 0 else f"q*{text}" if k == 1 else f"q^{k}*{text}"


def _sum_text(terms: list[tuple[int, str]]) -> str:
    """Join ``(sign, text)`` terms into one claim-language sum."""
    text = " ".join(f"{'+' if sign > 0 else '-'} {term}" for sign, term in terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _psi_dissection_text(p: int) -> str:
    """Lemma 2.1, the p-dissection of ``psi(q)``, term by term as in ``products``."""
    terms = []
    for m in range((p - 1) // 2):
        a, b = (p * p + (2 * m + 1) * p) // 2, (p * p - (2 * m + 1) * p) // 2
        terms.append((1, _times_q((m * m + m) // 2, f"f(q^{a},q^{b})")))
    terms.append((1, _times_q((p * p - 1) // 8, f"psi(q^{p * p})")))
    return _sum_text(terms)


def _l1_dissection_text(p: int) -> str:
    """Lemma 2.2, the p-dissection of ``l_1`` for p >= 5, term by term as in ``products``."""
    tstar = (p - 1) // 6 if p % 6 == 1 else (-p - 1) // 6
    terms = []
    for t in range(-(p - 1) // 2, (p - 1) // 2 + 1):
        if t != tstar:
            a, b = (3 * p * p + (6 * t + 1) * p) // 2, (3 * p * p - (6 * t + 1) * p) // 2
            terms.append((-1 if t % 2 else 1, _times_q((3 * t * t + t) // 2, f"f(-q^{a},-q^{b})")))
    terms.append((-1 if tstar % 2 else 1, _times_q((p * p - 1) // 24, f"l({p * p})")))
    return _sum_text(terms)


def _l1cubed_dissection_text(p: int) -> str:
    """Lemma 2.3, the p-dissection of ``l_1^3``.

    Its double sum over m = pn + k, k != (p-1)/2, is Jacobi's stream less the
    exponents = (p^2-1)/8 (mod p), the one class that k = (p-1)/2 reaches.
    """
    shift = (p * p - 1) // 8
    r = shift % p
    return _sum_text([
        (1, "stream(jacobi,1)"),
        (-1, _times_q(r, f"SUB(AP(stream(jacobi,1),{p},{r}),{p})")),
        (-1 if ((p - 1) // 2) % 2 else 1, f"{p}*" + _times_q(shift, f"l({p * p})^3")),
    ])


_BROKEN_NOTE = "does not hold as stated; kept so the counterexample is on record"


def _build_registry() -> list[Claim]:
    claims: list[Claim] = []
    add = claims.append

    # sanity layer: classical partition facts
    add(_congruence("ramanujan.p5", "1/l(1)", 5, 4, 5, 150, "Ramanujan: p(5n+4) = 0 mod 5"))
    add(_congruence("ramanujan.p7", "1/l(1)", 7, 5, 7, 150, "Ramanujan: p(7n+5) = 0 mod 7"))
    add(_congruence("ramanujan.p11", "1/l(1)", 11, 6, 11, 150, "Ramanujan: p(11n+6) = 0 mod 11"))
    add(_identity("euler.pentagonal", "(1/l(1))*stream(pentagonal,1)", "1", 300,
                  "Euler's pentagonal number theorem"))

    # theta product forms and the triple product
    add(_identity("eq2.4.phi", "phi(q)", "l(2)^5/(l(1)^2*l(4)^2)", 400,
                  "phi(q) eta-quotient form"))
    add(_identity("eq2.5.psi", "psi(q)", "l(2)^2/l(1)", 400, "psi(q) eta-quotient form"))
    add(_identity("eq2.6.fneg", "f(-q,-q^2)", "l(1)", 400, "f(-q) = l_1"))
    add(_identity("eq2.8.phineg", "phi(-q)", "l(1)^2/l(2)", 400, "phi(-q) eta-quotient form"))
    add(_identity("eq2.9.jacobi", "stream(jacobi,1)", "l(1)^3", 400, "Jacobi's identity for l_1^3"))
    add(_identity("triple.phi", "f(q,q)", "poch(-q,2)^2*poch(q^2,2)", 400,
                  "triple product at (q, q)"))
    add(_identity("triple.psi", "f(q,q^3)", "poch(-q,4)*poch(-q^3,4)*poch(q^4,4)", 400,
                  "triple product at (q, q^3)"))
    add(_identity("triple.fneg", "f(-q,-q^2)", "poch(q,3)*poch(q^2,3)*poch(q^3,3)", 400,
                  "triple product at (-q, -q^2)"))
    add(_identity("triple.f15", "f(q,q^5)", "poch(-q,6)*poch(-q^5,6)*poch(q^6,6)", 400,
                  "triple product at (q, q^5)"))

    # 3-dissection lemmas
    add(_identity(
        "lemma2.4a", "l(2)/l(1)^2",
        "l(6)^4*l(9)^6/(l(3)^8*l(18)^3) + 2*q*l(6)^3*l(9)^3/l(3)^7"
        " + 4*q^2*l(6)^2*l(18)^3/l(3)^6",
        500, "3-dissection of l_2/l_1^2"))
    add(_identity(
        "lemma2.4b", "1/(l(1)*l(2))",
        "l(9)^9/(l(3)^6*l(6)^2*l(18)^3) + q*l(9)^6/(l(3)^5*l(6)^3)"
        " + 3*q^2*l(9)^3*l(18)^3/(l(3)^4*l(6)^4) - 2*q^3*l(18)^6/(l(3)^3*l(6)^5)"
        " + 4*q^4*l(18)^9/(l(3)^2*l(6)^6*l(9)^3)",
        500, "3-dissection of 1/(l_1 l_2)"))
    add(_identity(
        "lemma2.4c", "l(4)/l(1)",
        "l(12)*l(18)^4/(l(3)^3*l(36)^2) + q*l(6)^2*l(9)^3*l(36)/(l(3)^4*l(18)^2)"
        " + 2*q^2*l(6)*l(18)*l(36)/l(3)^3",
        500, "3-dissection of l_4/l_1"))

    # binomial-theorem congruences
    add(_congruence("binom.lm1.p3", "l(1)^3 - l(3)", 1, 0, 3, 200, "l_1^3 = l_3 mod 3"))
    add(_congruence("binom.lm1.p5", "l(2)^5 - l(10)", 1, 0, 5, 200, "l_2^5 = l_10 mod 5"))
    add(_congruence("binom.lm1.p7", "l(1)^7 - l(7)", 1, 0, 7, 200, "l_1^7 = l_7 mod 7"))
    add(_congruence("binom.lm2.t1", "l(1)^2 - l(2)", 1, 0, 2, 200, "l_1^2 = l_2 mod 2"))
    add(_congruence("binom.lm2.t2", "l(1)^4 - l(2)^2", 1, 0, 4, 200, "l_1^4 = l_2^2 mod 4"))
    add(_congruence("binom.lm2.t3", "l(1)^8 - l(2)^4", 1, 0, 8, 200, "l_1^8 = l_2^4 mod 8"))

    # prime dissection lemmas
    for p in (3, 5, 7):
        add(_identity(f"lemma2.1.p{p}", "psi(q)", _psi_dissection_text(p), 300,
                      f"p-dissection of psi(q) at p = {p}"))
    for p in (5, 7, 11):
        add(_identity(f"lemma2.2.p{p}", "l(1)", _l1_dissection_text(p), 300,
                      f"p-dissection of l_1 at p = {p}"))
    for p in (3, 5, 7):
        add(_identity(f"lemma2.3.p{p}", "l(1)^3", _l1cubed_dissection_text(p), 300,
                      f"p-dissection of l_1^3 at p = {p}"))

    # v(q)
    add(_identity("thm3.1", "AP(mock(v),2,1)", "l(4)^3/(l(1)*l(2))", 500,
                  "Theorem 3.1: odd part of v(q)"))
    add(_interpretation("thm3.2", "v", 2, 1, "thm3.2", 25, 200,
                        "Theorem 3.2: colored partition interpretation of P_v(2n+1)"))
    add(_identity("thm3.2.gf", "ruleset(thm3.2)", "l(4)^3/(l(1)*l(2))", 300,
                  "Theorem 3.2 ruleset generating function"))
    add(_congruence("thm3.3i", "mock(v)", 6, 5, 3, 150, "Theorem 3.3(i): P_v(6n+5) = 0 mod 3"))
    add(_identity(
        "eq3.2",
        "SUB(ALT(mock(mu)),2) + 4*mock(v)",
        "poch(q^4,4)*poch(-q^2,4)^3/(poch(q^2,4)^2*poch(-q^4,4)^2)"
        " + 4*q*poch(q^8,8)*poch(-q^4,4)/(poch(q^4,8)*poch(q^2,4))",
        400, "mu(-q^2) + 4v(q) as Pochhammer products"))
    add(_identity("eq3.3", "AP(mock(v),6,5)", "3*l(4)*l(6)^3/l(1)^3", 300,
                  "P_v(6n+5) eta-quotient form"))
    add(_congruence("eq3.4", "AP(mock(v),2,1) - psi(q)*psi(q^2)", 1, 0, 2, 200,
                    "Theorem 3.3(ii) base: P_v(2n+1) = psi psi(q^2) mod 2"))
    add(_congruence("eq3.5", "AP(mock(v),6,5) - 3*l(1)*l(6)^3", 1, 0, 6, 150,
                    "Theorem 3.3(iii) base: P_v(6n+5) = 3 l_1 l_6^3 mod 6"))
    add(_family("thm3.3ii.p5", "thm3.3ii", 5, 0, 10, "Theorem 3.3(ii) family at p = 5"))
    add(_family("thm3.3ii.p7", "thm3.3ii", 7, 0, 10, "Theorem 3.3(ii) family at p = 7"))
    add(_family("thm3.3ii.p5a1", "thm3.3ii", 5, 1, 1,
                "Theorem 3.3(ii) family at p = 5, alpha = 1 (stretch)"))
    add(_family("thm3.3iii.p5", "thm3.3iii", 5, 0, 5, "Theorem 3.3(iii) family at p = 5"))
    add(_recurrence("thm3.4", "AP(mock(v),2,1)", "(l(4)/l(1))*stream(psi,2)", 300, 60,
                    _direct_thm3_4, ["AP(mock(v),2,1)", "l(4)/l(1)"],
                    "Theorem 3.4: P_v(2n+1) from 4-regular counts"))
    add(_recurrence(
        "thm3.5", "AP(mock(v),6,5)*stream(pentagonal,1)",
        "3*(l(4)/l(2)^2)*(l(2)/l(1))^2*stream(jacobi,6)", 300, 60,
        _direct_thm3_5, ["AP(mock(v),6,5)", "(l(2)/l(1))^2", "l(2)/l(1)^2"],
        "Theorem 3.5: P_v(6n+5) from overpartitions and 2-copy distinct parts"))
    add(_congruence("remark3.6", "mock(mu) - 1/l(1)^3", 1, 0, 4, 300,
                    "Remark 3.6: P_mu(n) = p_3(n) mod 4"))

    # sigma(q)
    add(_identity("eq4.1", "SUB(mock(nu),2) - ALT(mock(sigma))",
                  "q*l(4)^2*l(12)^2/(l(2)^2*l(6))", 400,
                  "nu(q^2) - sigma(-q) eta-quotient form"))
    add(_identity("thm4.1", "AP(mock(sigma),2,1)", "l(2)^2*l(6)^2/(l(1)^2*l(3))", 500,
                  "Theorem 4.1: odd part of sigma(q)"))
    add(_interpretation("thm4.2", "sigma", 2, 1, "thm4.2", 25, 200,
                        "Theorem 4.2: colored partition interpretation of P_sigma(2n+1)"))
    add(_identity("thm4.2.gf", "ruleset(thm4.2)", "l(2)^2*l(6)^2/(l(1)^2*l(3))", 300,
                  "Theorem 4.2 ruleset generating function"))
    add(_congruence("eq4.2", "AP(mock(sigma),2,1) - l(2)*psi(q^3)", 1, 0, 2, 200,
                    "Theorem 4.3 base: P_sigma(2n+1) = l_2 psi(q^3) mod 2"))
    add(_family("thm4.3.p5", "thm4.3", 5, 0, 10, "Theorem 4.3 family at p = 5"))
    add(_recurrence("thm4.4", "AP(mock(sigma),2,1)", "(l(2)/l(1))^2*stream(psi,3)", 300, 60,
                    _direct_thm4_4, ["AP(mock(sigma),2,1)", "(l(2)/l(1))^2"],
                    "Theorem 4.4: P_sigma(2n+1) from 2-copy distinct parts"))

    # beta(q)
    add(_identity(
        "eq5.1", "SUB(mock(phi6),3) + 2*q^-1*SUB(mock(psi6),3) + 2*mock(beta)",
        "l(2)*l(3)^5/(l(1)^2*l(6)^3)", 400,
        "phi(q^3) + 2q^-1 psi(q^3) + 2beta(q) eta-quotient form"))
    add(_identity("eq5.2", "AP(mock(beta),3,1)", "l(3)^3/l(1)^2", 500,
                  "P_beta(3n+1) eta-quotient form"))
    add(_identity("thm5.1", "AP(mock(beta),3,2)", "2*l(6)^3/(l(1)*l(2))", 500,
                  "Theorem 5.1: P_beta(3n+2) as stated",
                  notes=_BROKEN_NOTE + "; the mock term survives the extraction"
                  " (see thm5.1.corrected)"))
    add(_identity("thm5.1.corrected", "AP(mock(beta),3,2)",
                  "2*l(6)^3/(l(1)*l(2)) - q^-1*mock(psi6)", 500,
                  "Theorem 5.1 with the surviving mock term restored"))
    add(_interpretation("thm5.2", "beta", 3, 2, "thm5.2", 25, 200,
                        "Theorem 5.2: colored partition interpretation of P_beta(3n+2)",
                        notes=_BROKEN_NOTE + "; see thm5.2.gf for what the ruleset counts"))
    add(_identity("thm5.2.gf", "ruleset(thm5.2)", "l(6)^3/(l(1)*l(2))", 300,
                  "Theorem 5.2 ruleset generating function"))
    add(_congruence("thm5.3", "mock(beta)", 9, 8, 6, 100,
                    "Theorem 5.3: P_beta(9n+8) = 0 mod 6 as stated",
                    notes=_BROKEN_NOTE + " (see thm5.3.corrected)"))
    add(_congruence("thm5.3.corrected",
                    "AP(mock(beta),9,8) + q^-1*AP(mock(psi6),3,0)", 1, 0, 6, 100,
                    "Theorem 5.3 with the surviving mock term restored"))
    add(_identity("eq5.3", "AP(mock(beta),9,8)", "6*l(3)^3*l(6)^3/(l(1)^4*l(2))", 300,
                  "P_beta(9n+8) eta-quotient form as stated",
                  notes=_BROKEN_NOTE + " (see eq5.3.corrected)"))
    add(_identity("eq5.3.corrected", "AP(mock(beta),9,8)",
                  "6*l(3)^3*l(6)^3/(l(1)^4*l(2)) - q^-1*AP(mock(psi6),3,0)", 300,
                  "P_beta(9n+8) with the surviving mock term restored"))
    add(_recurrence("thm5.4", "AP(mock(beta),3,2)*stream(psi,1)",
                    "2*(l(2)/l(1)^2)*stream(jacobi,6)", 300, 60,
                    _direct_thm5_4, ["AP(mock(beta),3,2)", "l(2)/l(1)^2"],
                    "Theorem 5.4: P_beta(3n+2) from overpartitions as stated",
                    notes=_BROKEN_NOTE + " (see thm5.4.corrected)"))
    add(_identity("thm5.4.corrected",
                  "(AP(mock(beta),3,2) + q^-1*mock(psi6))*stream(psi,1)",
                  "2*(l(2)/l(1)^2)*stream(jacobi,6)", 300,
                  "Theorem 5.4 with the surviving mock term restored"))
    add(_recurrence("thm5.5", "AP(mock(beta),9,8)*stream(jacobi,2)",
                    "6*(l(2)/l(1)^2)^2*stream(jacobi,3)*stream(jacobi,6)", 300, 60,
                    _direct_thm5_5, ["AP(mock(beta),9,8)", "(l(2)/l(1)^2)^2"],
                    "Theorem 5.5: P_beta(9n+8) from 2-copy overpartitions as stated",
                    notes=_BROKEN_NOTE + " (see thm5.5.corrected)"))
    add(_identity("thm5.5.corrected",
                  "(AP(mock(beta),9,8) + q^-1*AP(mock(psi6),3,0))*stream(jacobi,2)",
                  "6*(l(2)/l(1)^2)^2*stream(jacobi,3)*stream(jacobi,6)", 300,
                  "Theorem 5.5 with the surviving mock term restored"))
    add(_recurrence("thm5.6", "AP(mock(beta),3,1)*stream(pentagonal,2)",
                    "(l(2)/l(1)^2)*stream(jacobi,3)", 300, 60,
                    _direct_thm5_6, ["AP(mock(beta),3,1)", "l(2)/l(1)^2"],
                    "Theorem 5.6: P_beta(3n+1) from overpartitions"))

    # lambda(q)
    add(_identity("eq6.1", "AP(mock(lambda),2,0)", "l(2)^3*l(3)^2/(l(1)^3*l(6))", 400,
                  "P_lambda(2n) eta-quotient form"))
    add(_identity("eq6.2", "AP(mock(lambda),6,2)", "3*(l(3)^5/l(6))*(l(2)/l(1)^2)^3", 400,
                  "P_lambda(6n+2) eta-quotient form"))
    add(_identity("eq6.3", "AP(mock(lambda),6,4)", "l(2)^2*l(3)^2*l(6)^2/l(1)^5", 400,
                  "P_lambda(6n+4) eta-quotient form as stated",
                  notes=_BROKEN_NOTE + "; a factor 6 is missing (see eq6.3.corrected)"))
    add(_identity("eq6.3.corrected", "AP(mock(lambda),6,4)",
                  "6*l(2)^2*l(3)^2*l(6)^2/l(1)^5", 400,
                  "P_lambda(6n+4) eta-quotient form with the constant restored"))
    add(_interpretation("thm6.1", "lambda", 2, 0, "thm6.1", 25, 200,
                        "Theorem 6.1: colored partition interpretation of P_lambda(2n)"))
    add(_identity("thm6.1.gf", "ruleset(thm6.1)", "l(2)^3*l(3)^2/(l(1)^3*l(6))", 300,
                  "Theorem 6.1 ruleset generating function"))
    add(_recurrence("thm6.2", "AP(mock(lambda),2,0)", "(l(2)/l(1))^3*stream(phi,3)",
                    300, 60, _direct_thm6_2, ["AP(mock(lambda),2,0)", "(l(2)/l(1))^3"],
                    "Theorem 6.2: P_lambda(2n) from 3-copy distinct parts"))
    add(_recurrence("thm6.3", "AP(mock(lambda),6,2)",
                    "3*(l(2)/l(1)^2)^3*stream(phi,3)*stream(jacobi,3)", 300, 60,
                    _direct_thm6_3, ["AP(mock(lambda),6,2)", "(l(2)/l(1)^2)^3"],
                    "Theorem 6.3: P_lambda(6n+2) from 3-copy overpartitions"))
    add(_recurrence("thm6.4", "AP(mock(lambda),6,4)*stream(jacobi,1)",
                    "6*(l(2)/l(1))^2*stream(phi,3)*stream(jacobi,6)", 300, 60,
                    _direct_thm6_4, ["AP(mock(lambda),6,4)", "(l(2)/l(1))^2"],
                    "Theorem 6.4: P_lambda(6n+4) from 2-copy distinct parts"))

    ids = [c.id for c in claims]
    assert len(ids) == len(set(ids)), "duplicate claim ids"
    return claims


_registry_cache: list[Claim] | None = None


def registry() -> list[Claim]:
    """The built-in claim set, in a stable order."""
    global _registry_cache
    if _registry_cache is None:
        _registry_cache = _build_registry()
    return list(_registry_cache)


def registry_by_id() -> dict[str, Claim]:
    return {c.id: c for c in registry()}


# -- claim files --------------------------------------------------------------

_CLAIM_FIELDS = {
    "id", "type", "lhs", "rhs", "expr", "A", "B", "M", "count",
    "family", "p", "alpha", "order", "ruleset", "mock", "bound", "cite",
}


def parse_claim_file(text: str, source: str = "<claims>") -> list[Claim]:
    """Parse the line-oriented claim file format.

    Records start with a ``[claim]`` line followed by ``key=value`` lines;
    ``#`` starts a comment.  Returns fully-built claims.  Malformed input
    raises ValueError naming the source and the offending line, or the claim
    and field: a missing field, a non-integer, an unparsable expression, or
    an order, count or progression step A below 1 (a bound or a progression
    offset B below 0, a modulus M below 2), which would check nothing.
    """
    records: list[dict[str, str]] = []
    current: dict[str, str] | None = None
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
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CLAIM_FIELDS:
            raise ValueError(f"{source}:{lineno}: unknown field {key!r}")
        current[key] = value.strip()
    return [_claim_from_record(r, source) for r in records]


def _claim_from_record(rec: dict[str, str], source: str) -> Claim:
    try:
        cid = rec["id"]
        kind = ClaimKind(rec["type"])
    except KeyError as exc:
        raise ValueError(f"{source}: claim record missing {exc}") from None
    except ValueError:
        raise ValueError(f"{source}: unknown claim type {rec.get('type')!r}") from None

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

    cite = rec.get("cite", "")
    if kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        return Claim(
            cid, kind, cite=cite, lhs=expr("lhs"), rhs=expr("rhs"),
            order=num("order", 200, least=1),
        )
    if kind is ClaimKind.CONGRUENCE:
        return Claim(
            cid, kind, cite=cite, expr=expr("expr"),
            A=num("A", 1, least=1), B=num("B", 0, least=0), M=num("M", least=2),
            count=num("count", 100, least=1),
        )
    if kind is ClaimKind.CONGRUENCE_FAMILY:
        return Claim(
            cid, kind, cite=cite, family=text("family"),
            p=num("p"), alpha=num("alpha", 0), count=num("count", 5, least=1),
        )
    return Claim(
        cid, kind, cite=cite, mock=text("mock"), ruleset=text("ruleset"),
        A=num("A", 1, least=1), B=num("B", 0, least=0), bound=num("bound", 20, least=0),
        dp_order=num("order", 0, least=1),
    )


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
    "Claim", "ClaimKind", "MAX_ORDER", "VerificationReport", "verify", "verify_all", "registry",
    "registry_by_id", "parse_claim_file", "reports_to_json", "reports_to_csv",
    "tally", "to_text", "within_cap",
]
