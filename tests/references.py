"""Test-only references: independent routes the package's fast paths and
registry claims are checked against.  Nothing in ``qseries`` imports this
module; pytest puts ``tests/`` on the path, so tests import it as
``references``.

``pochhammer_by_binomials`` is the product loop that ``apply_pochhammer``'s
Euler and Cauchy sums replaced, kept as their oracle, and
``eta_quotient_flat`` is the one-level eta-quotient loop that the
grid-by-grid expansion of ``eta_quotient`` replaced.
``agrees_by_coefficients`` is the exponent-by-exponent comparison that
``TruncatedSeries.agrees_with`` replaced, and ``coefficients_by_exponent``,
``extract_ap_by_exponent`` and ``alternate_by_parity`` are the
coefficient-at-a-time definitions that the slices of ``coefficients``,
``extract_ap`` and ``alternate`` replaced.  The dissection
right-hand sides compute the prime dissections of psi(q), l_1 and l_1^3
term by term, independently of the claim language, as the reference the
registry's lemma2.1-2.3 texts are checked against.  The
classical partition families are eta quotients, and the ``*_brute``
counters enumerate the same partitions by plain backtracking.
``qualifying_primes`` scans for the primes a congruence family admits.
``leaf_demands`` reads the order at which a demand plan expands each leaf.
"""

from __future__ import annotations

from math import gcd

from qseries.expr import Eta, Expr, Lit, Mock, Mono, Plan, RulesetRef, Stream, Theta
from qseries.ntheory import FAMILIES, DomainError, is_prime, legendre
from qseries.products import (
    DivergenceError,
    EtaQuotientSpec,
    PochhammerSpec,
    apply_pochhammer,
    eta,
    eta_quotient,
    jacobi_cube,
    pochhammer,
    theta_f,
)
from qseries.series import SeriesError, TruncatedSeries, div_binomial, mul_binomial


# -- series: the comparison one exponent at a time --------------------------

def agrees_by_coefficients(a: TruncatedSeries, b: TruncatedSeries) -> tuple[bool, int | None]:
    """``a.agrees_with(b)`` by reading both coefficients at every exponent
    from the lower valuation up to the lower order."""
    for e in range(min(a.valuation, b.valuation), min(a.order, b.order)):
        if a.coefficient(e) != b.coefficient(e):
            return False, e
    return True, None


def coefficients_by_exponent(s: TruncatedSeries, upto: int | None = None) -> list[int]:
    """``s.coefficients(upto)``: one ``coefficient`` call per exponent from 0."""
    n = s.order if upto is None else min(upto, s.order)
    return [s.coefficient(e) for e in range(0, n)]


def extract_ap_by_exponent(s: TruncatedSeries, m: int, r: int) -> TruncatedSeries:
    """``s.extract_ap(m, r)``: coefficient m*n + r of ``s`` read as that of q^n."""
    val = -((r - s.valuation) // m)
    order = -((r - s.order) // m)
    if order <= val:
        return TruncatedSeries.zero(order)
    return TruncatedSeries(val, [s.coefficient(m * n + r) for n in range(val, order)], order)


def alternate_by_parity(s: TruncatedSeries) -> TruncatedSeries:
    """``s.alternate()``: each coefficient negated when its exponent is odd."""
    v = s.valuation
    return TruncatedSeries(v, [c if (v + i) % 2 == 0 else -c for i, c in enumerate(s.coeffs)], s.order)


# -- products: the binomial-by-binomial Pochhammer product --------------------

def pochhammer_by_binomials(out: list[int], spec: PochhammerSpec, power: int) -> None:
    """Multiply ``out`` in place by ``spec`` to ``power``, one binomial
    factor (1 - sign*q^e) at a time; factors at or beyond the list's length
    contribute 1."""
    kernel = mul_binomial if power > 0 else div_binomial
    for _ in range(abs(power)):
        for e in range(spec.base_exp, len(out), spec.step):
            kernel(out, e, -spec.sign)


def eta_quotient_flat(spec: EtaQuotientSpec | dict[int, int], order: int) -> TruncatedSeries:
    """The eta quotient in one level: when g, the gcd of every index and
    Pochhammer exponent, is above 1, expand in q^g at ``ceil(order/g)``;
    apply every Pochhammer factor to one list, then multiply in or divide
    out the ``l_k`` factors in increasing k, every factor at full length."""
    if isinstance(spec, dict):
        spec = EtaQuotientSpec(spec)
    if order <= 0:
        return TruncatedSeries.zero(order)
    g = gcd(
        *(k for k, e in spec.exponents.items() if e),
        *(x for p, e in spec.pochs.items() if e for x in (p.base_exp, p.step)),
    ) or 1
    n = -(-order // g)
    out = [1] + [0] * (n - 1)
    for p, e in spec.pochs.items():
        if e:
            apply_pochhammer(out, PochhammerSpec(p.sign, p.base_exp // g, p.step // g), e)
    acc = TruncatedSeries(0, out, n)
    for k, e in sorted(spec.exponents.items()):
        if e == 0:
            continue
        s = eta(k // g, n)
        for _ in range(abs(e)):
            acc = acc * s if e > 0 else acc / s
    if g == 1:
        return acc
    out = [0] * order
    out[::g] = acc.coeffs
    return TruncatedSeries(0, out, order)


# -- products: the triple product and the prime dissections ------------------

def triple_product(sign1: int, a: int, sign2: int, b: int, order: int) -> TruncatedSeries:
    """The product side ``(-c; cd)(-d; cd)(cd; cd)`` of the triple product identity."""
    step = a + b
    if step < 1:
        raise DivergenceError("triple product requires a + b >= 1")
    p1 = pochhammer(PochhammerSpec(-sign1, a, step), order)
    p2 = pochhammer(PochhammerSpec(-sign2, b, step), order)
    p3 = pochhammer(PochhammerSpec(sign1 * sign2, step, step), order)
    return p1 * p2 * p3


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")


def psi_p_dissection_rhs(p: int, order: int) -> TruncatedSeries:
    """Right-hand side of the p-dissection of ``psi(q)`` for an odd prime p.

    The sum over m = 0..(p-3)/2 of ``q^{(m^2+m)/2} f(q^{(p^2+(2m+1)p)/2},
    q^{(p^2-(2m+1)p)/2})`` plus the distinguished term
    ``q^{(p^2-1)/8} psi(q^{p^2})``.
    """
    acc = psi_p_dissection_final_term(p, order)
    for m in range((p - 1) // 2):
        sh = (m * m + m) // 2
        if sh >= order:
            continue
        t = theta_f(
            1, (p * p + (2 * m + 1) * p) // 2,
            1, (p * p - (2 * m + 1) * p) // 2,
            order - sh,
        )
        acc = acc + t.shift(sh)
    return acc


def psi_p_dissection_final_term(p: int, order: int) -> TruncatedSeries:
    """The distinguished term ``q^{(p^2-1)/8} psi(q^{p^2})`` alone."""
    _require_odd_prime(p)
    sh = (p * p - 1) // 8
    if sh >= order:
        return TruncatedSeries.zero(order)
    return theta_f(1, p * p, 1, 3 * p * p, order - sh).shift(sh)


def _f1_branch_index(p: int) -> int:
    # (p-1)/6 for p = 1 mod 6, (-p-1)/6 for p = -1 mod 6
    if p % 6 == 1:
        return (p - 1) // 6
    return (-p - 1) // 6


def f1_p_dissection_rhs(p: int, order: int) -> TruncatedSeries:
    """Right-hand side of the p-dissection of ``l_1`` for a prime p >= 5.

    Sum over t in [-(p-1)/2, (p-1)/2] minus the branch index of
    ``(-1)^t q^{(3t^2+t)/2} f(-q^{(3p^2+(6t+1)p)/2}, -q^{(3p^2-(6t+1)p)/2})``
    plus the distinguished term with ``l_{p^2}``.
    """
    acc = f1_p_dissection_final_term(p, order)
    tstar = _f1_branch_index(p)
    for t in range(-(p - 1) // 2, (p - 1) // 2 + 1):
        if t == tstar:
            continue
        sh = (3 * t * t + t) // 2
        if sh >= order:
            continue
        term = theta_f(
            -1, (3 * p * p + (6 * t + 1) * p) // 2,
            -1, (3 * p * p - (6 * t + 1) * p) // 2,
            order - sh,
        ).shift(sh)
        acc = acc + (term if t % 2 == 0 else -term)
    return acc


def f1_p_dissection_final_term(p: int, order: int) -> TruncatedSeries:
    """The distinguished term ``(-1)^{(+-p-1)/6} q^{(p^2-1)/24} l_{p^2}``."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"{p} is not a prime >= 5")
    tstar = _f1_branch_index(p)
    sh = (p * p - 1) // 24
    if sh >= order:
        return TruncatedSeries.zero(order)
    term = eta(p * p, order - sh).shift(sh)
    return term if tstar % 2 == 0 else -term


def f1cubed_p_dissection_rhs(p: int, order: int) -> TruncatedSeries:
    """Right-hand side of the p-dissection of ``l_1^3`` for an odd prime p.

    Double sum over k != (p-1)/2 and n >= 0 of
    ``(-1)^{k+n} (2pn+2k+1) q^{k(k+1)/2 + pn(pn+2k+1)/2}`` plus the
    distinguished term ``p (-1)^{(p-1)/2} q^{(p^2-1)/8} l_{p^2}^3``.
    """
    final = f1cubed_p_dissection_final_term(p, order)
    terms: dict[int, int] = {}
    for k in range(p):
        if k == (p - 1) // 2:
            continue
        base = k * (k + 1) // 2
        n = 0
        while True:
            e = base + p * n * (p * n + 2 * k + 1) // 2
            if e >= order:
                break
            c = (2 * p * n + 2 * k + 1) * (1 if (k + n) % 2 == 0 else -1)
            terms[e] = terms.get(e, 0) + c
            n += 1
    return TruncatedSeries.from_terms(terms, order) + final


def f1cubed_p_dissection_final_term(p: int, order: int) -> TruncatedSeries:
    """The distinguished term ``p (-1)^{(p-1)/2} q^{(p^2-1)/8} l_{p^2}^3``."""
    _require_odd_prime(p)
    sh = (p * p - 1) // 8
    if sh >= order:
        return TruncatedSeries.zero(order)
    cube = jacobi_cube(order - sh, p * p)
    sign = 1 if ((p - 1) // 2) % 2 == 0 else -1
    return cube.shift(sh).scale(sign * p)


# -- partitions: classical families ----------------------------------------

_pcache = [1]


def p_classic(n: int) -> int:
    """p(n) by the pentagonal recurrence, p(negative) = 0."""
    if n < 0:
        return 0
    while len(_pcache) <= n:
        t = len(_pcache)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > t:
                break
            sign = 1 if k % 2 else -1  # (-1)^(k+1)
            total += sign * _pcache[t - g1]
            if g2 <= t:
                total += sign * _pcache[t - g2]
            k += 1
        _pcache.append(total)
    return _pcache[n]


def p_r(r: int, order: int) -> TruncatedSeries:
    """Generating function of the r-color family: ``1 / l_1^r`` (r nonzero)."""
    if r == 0:
        raise SeriesError("r must be nonzero")
    return eta_quotient({1: -r}, order)


def overpartition_r(r: int, order: int) -> TruncatedSeries:
    """Overpartitions with r copies: ``(l_2 / l_1^2)^r``."""
    if r < 1:
        raise SeriesError("r must be positive")
    return eta_quotient({2: r, 1: -2 * r}, order)


def p_rd(r: int, order: int) -> TruncatedSeries:
    """Partitions into distinct parts with r copies: ``(l_2 / l_1)^r``."""
    if r < 1:
        raise SeriesError("r must be positive")
    return eta_quotient({2: r, 1: -r}, order)


def regular4(order: int) -> TruncatedSeries:
    """4-regular partitions (no part divisible by 4): ``l_4 / l_1``."""
    return eta_quotient({4: 1, 1: -1}, order)


# -- brute-force enumerators ------------------------------------------------

def partitions_brute(n: int) -> int:
    """Plain partition count by backtracking."""
    if n < 0:
        return 0

    def go(v, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        return sum(go(v + 1, rem - k * v) for k in range(rem // v + 1))

    return go(1, n)


def colored_partitions_brute(n: int, colors: int) -> int:
    """Partitions with labeled colors on every part."""
    if n < 0:
        return 0

    def go(v, ci, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        if ci == colors:
            return go(v + 1, 0, rem)
        return sum(go(v, ci + 1, rem - k * v) for k in range(rem // v + 1))

    return go(1, 0, n)


def distinct_colored_brute(n: int, colors: int, signed: bool = False) -> int:
    """Partitions into distinct (value, color) pairs, optionally signed by count."""
    if n < 0:
        return 0

    def go(v, ci, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        if ci == colors:
            return go(v + 1, 0, rem)
        skip = go(v, ci + 1, rem)
        take = go(v, ci + 1, rem - v) if rem >= v else 0
        return skip + (-take if signed else take)

    return go(1, 0, n)


def overpartitions_brute(n: int, copies: int = 1) -> int:
    """Overpartitions with ``copies`` colors: per (value, color), any number of
    plain parts plus an optional overlined one."""
    if n < 0:
        return 0

    def go(v, ci, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        if ci == copies:
            return go(v + 1, 0, rem)
        total = 0
        for over in (0, 1):
            left = rem - over * v
            if left < 0:
                continue
            total += sum(go(v, ci + 1, left - k * v) for k in range(left // v + 1))
        return total

    return go(1, 0, n)


def regular_brute(n: int, k: int = 4) -> int:
    """Partitions of n with no part divisible by k."""
    if n < 0:
        return 0

    def go(v, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        if v % k == 0:
            return go(v + 1, rem)
        return sum(go(v + 1, rem - c * v) for c in range(rem // v + 1))

    return go(1, n)


# -- ntheory: the primes a congruence family admits -------------------------

def qualifying_primes(family: str, bound: int) -> list[int]:
    """Primes up to ``bound`` satisfying the family's Legendre hypothesis."""
    if family not in FAMILIES:
        raise DomainError(f"unknown congruence family {family!r}")
    spec = FAMILIES[family]
    out = []
    for p in range(3, bound + 1):
        if not is_prime(p) or p < spec.min_p:
            continue
        if legendre(spec.legendre_w, p) == -1:
            out.append(p)
    return out


# -- expr: the leaf orders of a demand plan ---------------------------------

_LEAVES = (Lit, Mono, Eta, Theta, PochhammerSpec, Mock, Stream, RulesetRef)


def leaf_demands(plan: Plan) -> dict[Expr, int]:
    """The deepest order at which ``expr.run(plan)`` expands each leaf.

    Keys are leaf nodes; a folded product contributes its ``l(k)`` and
    ``poch`` factors.  A leaf asked only at its valuation expands to the
    empty series and is left out.
    """
    out: dict[Expr, int] = {}
    stack = [plan]
    while stack:
        plan = stack.pop()
        node, order = plan.node, plan.order
        if order <= plan.valuation:
            leaves = []
        elif isinstance(node, EtaQuotientSpec):
            leaves = [Eta(k) for k in node.exponents] + list(node.pochs)
        else:
            leaves = [node] if isinstance(node, _LEAVES) else []
        for leaf in leaves:
            out[leaf] = max(out.get(leaf, order), order)
        stack.extend(plan.kids)
    return out
