"""q-products and theta functions: Pochhammer symbols, eta quotients, and
the classical bilateral theta series, plus the prime dissection identities.
The dissections are computed here term by term, independently of the claim
language; they are the reference the registry's lemma2.1-2.3 texts are
tested against.

Everything returns a :class:`TruncatedSeries` exact to the requested order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd

from .ntheory import DomainError, is_prime
from .series import SeriesError, TruncatedSeries, div_binomial, mul_binomial


class DegenerateProductError(SeriesError):
    """An infinite Pochhammer product with a vanishing factor (b = 1)."""


class DivergenceError(SeriesError):
    """A bilateral theta sum whose exponents do not grow (|cd| >= 1 analogue)."""


@dataclass(frozen=True)
class PochhammerSpec:
    """The product ``(sign * q^base_exp ; q^step)_length``.

    ``length=None`` means the infinite product.  The degenerate infinite
    product ``(q^0; q^step)_inf = (1;q^step)_inf`` is rejected because it is
    identically zero.
    """

    sign: int
    base_exp: int
    step: int
    length: int | None = None

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")
        if self.base_exp < 0:
            raise DomainError(f"base exponent must be nonnegative, got {self.base_exp}")
        if self.step < 1:
            raise DomainError(f"step must be positive, got {self.step}")
        if self.length is not None and self.length < 0:
            raise DomainError(f"length must be nonnegative, got {self.length}")
        if self.length is None and self.base_exp == 0 and self.sign == 1:
            raise DegenerateProductError("(1; q^step)_inf is the zero product")


@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product of integer powers of ``l_k = (q^k; q^k)_inf`` and of
    Pochhammer products.

    ``exponents`` maps k to the power of ``l_k``; ``pochs`` maps a
    :class:`PochhammerSpec` to its power.  Every Pochhammer factor starts at
    ``q^1`` or later, so each one is a unit series and may be divided out.
    """

    exponents: dict[int, int] = field(default_factory=dict)
    pochs: dict[PochhammerSpec, int] = field(default_factory=dict)

    def __post_init__(self):
        for k, e in self.exponents.items():
            if not (isinstance(k, int) and k >= 1):
                raise DomainError(f"eta index must be a positive integer, got {k!r}")
            if not isinstance(e, int):
                raise DomainError(f"eta exponent must be an integer, got {e!r}")
        for p, e in self.pochs.items():
            if not (isinstance(p, PochhammerSpec) and p.base_exp >= 1):
                raise DomainError(f"Pochhammer factor must start at q^1 or later, got {p!r}")
            if not isinstance(e, int):
                raise DomainError(f"Pochhammer exponent must be an integer, got {e!r}")

    def __hash__(self):
        return hash((tuple(sorted(self.exponents.items())), frozenset(self.pochs.items())))


def _apply_pochhammer(out: list[int], spec: PochhammerSpec, power: int) -> None:
    """Multiply the power series ``out`` in place by the product ``spec`` to
    the integer ``power``, one binomial factor at a time; factors at or
    beyond the list's length contribute 1."""
    exponents = range(spec.base_exp, len(out), spec.step)
    if spec.length is not None:
        exponents = exponents[: spec.length]
    kernel = mul_binomial if power > 0 else div_binomial
    for _ in range(abs(power)):
        for e in exponents:
            kernel(out, e, -spec.sign)


def pochhammer(spec: PochhammerSpec, order: int) -> TruncatedSeries:
    """Expand a Pochhammer product to the given order.

    Finite products are exact polynomials (reported at this order); infinite
    products stabilise because factors with exponent >= order contribute 1.
    """
    if order <= 0:
        return TruncatedSeries.zero(order)
    out = [1] + [0] * (order - 1)
    _apply_pochhammer(out, spec, 1)
    return TruncatedSeries(0, out, order)


def eta(k: int, order: int) -> TruncatedSeries:
    """``l_k = (q^k;q^k)_inf`` by the pentagonal number sum.

    O(sqrt(order/k)) terms, cheap enough to recompute on every call, so it is
    not memoised.  The result doubles as a standing check of the pentagonal
    expansion against the factor-by-factor product.
    """
    if k < 1:
        raise DomainError(f"eta index must be positive, got {k}")
    terms: dict[int, int] = {}
    m = 0
    while True:
        hit = False
        for mm in (m, -m) if m else (0,):
            e = k * mm * (3 * mm - 1) // 2
            if e < order:
                terms[e] = 1 if mm % 2 == 0 else -1
                hit = True
        if m and not hit:
            break
        m += 1
    return TruncatedSeries.from_terms(terms, order)


def eta_quotient(spec: EtaQuotientSpec | dict[int, int], order: int) -> TruncatedSeries:
    """Expand ``prod_k l_k^{e_k} * prod_p poch_p^{e_p}`` exactly to the given order.

    The Pochhammer factors are applied binomial by binomial to one
    coefficient list.  Then the ``l_k`` numerator factors are multiplied in
    and the denominator factors divided out one at a time, so that every
    division is by a sparse pentagonal series.  When g, the gcd of the
    indices and the Pochhammer exponents, is above 1, the product is a series
    in ``q^g``: it is expanded at ``ceil(order/g)`` with every index divided
    by g, and its coefficients are spread g apart into a list of length
    ``order``, so the work and memory stay bounded by the order however
    large g is.
    """
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
        _apply_pochhammer(out, replace(p, base_exp=p.base_exp // g, step=p.step // g), e)
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


def theta_f(sign1: int, a: int, sign2: int, b: int, order: int) -> TruncatedSeries:
    """Ramanujan's theta ``f(c, d)`` at ``c = sign1*q^a``, ``d = sign2*q^b``.

    The bilateral sum runs over all integers m with exponent
    ``a*m(m+1)/2 + b*m(m-1)/2`` below the order.  Requires ``a + b >= 1``.
    """
    if sign1 not in (1, -1) or sign2 not in (1, -1):
        raise DomainError("theta signs must be +1 or -1")
    if a < 0 or b < 0:
        raise DomainError("theta exponents must be nonnegative")
    if a + b == 0:
        raise DivergenceError("f(c, d) with a + b = 0 does not converge")
    terms: dict[int, int] = {}
    m = 0
    while (a + b) * m * (m - 1) // 2 < order:
        for mm in (m, -m) if m else (0,):
            up, down = mm * (mm + 1) // 2, mm * (mm - 1) // 2  # both >= 0
            e = a * up + b * down
            if e < order:
                terms[e] = terms.get(e, 0) + sign1 ** up * sign2 ** down
        m += 1
    return TruncatedSeries.from_terms(terms, order)


def phi(order: int) -> TruncatedSeries:
    """``phi(q) = f(q, q) = sum q^{m^2}``."""
    return theta_f(1, 1, 1, 1, order)


def psi(order: int) -> TruncatedSeries:
    """``psi(q) = f(q, q^3) = sum_{m>=0} q^{m(m+1)/2}``."""
    return theta_f(1, 1, 1, 3, order)


def jacobi_cube(order: int, k: int = 1) -> TruncatedSeries:
    """Jacobi's ``l_k^3 = sum_{m>=0} (-1)^m (2m+1) q^{k m(m+1)/2}``, k as in ``eta``."""
    if k < 1:
        raise DomainError(f"jacobi_cube index must be positive, got {k}")
    terms: dict[int, int] = {}
    m = 0
    while k * m * (m + 1) // 2 < order:
        terms[k * m * (m + 1) // 2] = (2 * m + 1) * (1 if m % 2 == 0 else -1)
        m += 1
    return TruncatedSeries.from_terms(terms, order)


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
