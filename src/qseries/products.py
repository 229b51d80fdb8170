"""q-products and theta functions: infinite Pochhammer products, eta
quotients, and the classical bilateral theta series, the leaves the claim
language evaluates.

Everything returns a :class:`TruncatedSeries` exact to the requested order.
"""

from __future__ import annotations

from math import gcd, sqrt
from operator import add, sub

from .ntheory import DomainError
from .records import FrozenRecord
from .series import SeriesError, TruncatedSeries, div_binomial


class DegenerateProductError(SeriesError):
    """An infinite Pochhammer product with a vanishing factor (b = 1)."""


class DivergenceError(SeriesError):
    """A bilateral theta sum whose exponents do not grow (|cd| >= 1 analogue)."""


class PochhammerSpec(FrozenRecord):
    """The infinite product ``(sign * q^base_exp ; q^step)_inf``, and the
    claim language's ``poch`` leaf.

    The degenerate product ``(q^0; q^step)_inf = (1;q^step)_inf`` is rejected
    because it is identically zero.
    """

    sign: int
    base_exp: int
    step: int

    def __init__(self, sign: int, base_exp: int, step: int):
        if sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        if base_exp < 0:
            raise DomainError(f"base exponent must be nonnegative, got {base_exp}")
        if step < 1:
            raise DomainError(f"step must be positive, got {step}")
        if base_exp == 0 and sign == 1:
            raise DegenerateProductError("(1; q^step)_inf is the zero product")
        super().__init__(sign, base_exp, step)


class EtaQuotientSpec(FrozenRecord):
    """A finite product of integer powers of ``l_k = (q^k; q^k)_inf`` and of
    Pochhammer products.

    ``exponents`` maps k to the power of ``l_k``; ``pochs`` maps a
    :class:`PochhammerSpec` to its power; either defaults to a new empty
    dict.  Every Pochhammer factor starts at ``q^1`` or later, so each one
    is a unit series and may be divided out.
    """

    exponents: dict[int, int]
    pochs: dict[PochhammerSpec, int]

    def __init__(
        self,
        exponents: dict[int, int] | None = None,
        pochs: dict[PochhammerSpec, int] | None = None,
    ):
        exponents = {} if exponents is None else exponents
        pochs = {} if pochs is None else pochs
        for k, e in exponents.items():
            if not (isinstance(k, int) and k >= 1):
                raise DomainError(f"eta index must be a positive integer, got {k!r}")
            if not isinstance(e, int):
                raise DomainError(f"eta exponent must be an integer, got {e!r}")
        for p, e in pochs.items():
            if not (isinstance(p, PochhammerSpec) and p.base_exp >= 1):
                raise DomainError(f"Pochhammer factor must start at q^1 or later, got {p!r}")
            if not isinstance(e, int):
                raise DomainError(f"Pochhammer exponent must be an integer, got {e!r}")
        super().__init__(exponents, pochs)


def apply_pochhammer(out: list[int], spec: PochhammerSpec, power: int) -> None:
    """Multiply the power series ``out`` in place by the product ``spec`` to
    the integer ``power``, truncated to the list's length.

    With x = sign*q^base_exp and p = q^step, the product and its inverse are
    the q-binomial sums of Euler and of Cauchy (the Durfee square):

        (x;p)_inf   = sum_m (-x)^m p^(m(m-1)/2) / (p;p)_m
        1/(x;p)_inf = sum_m x^m p^(m(m-1)) / ((p;p)_m (x;p)_m)

    Term m starts at q^(base_exp*m + step*m(m-1)/2), or at
    q^(base_exp*m + step*m(m-1)) for Cauchy, so O(sqrt(len/step)) terms
    reach below the length.  Each sum times X, the input list, is taken in
    nested form from its last term inward: H_top = X and
    H_m = X + (T_(m+1)/T_m) H_(m+1), where the ratio is one binomial
    division (two for Cauchy) and a signed shift, and H_0 is the answer.
    H_m is only needed below the length less term m's valuation, so every
    level works on a list that much shorter.  A power e applies the sum |e|
    times.
    """
    a, d, s = spec.base_exp, spec.step, spec.sign
    cauchy = power < 0
    if cauchy and a == 0:
        raise SeriesError("(-1; q^step)_inf leads with 2 and has no power series inverse")
    gap = 2 * d if cauchy else d  # term m + 1 starts a + gap*m above term m
    shift_in = add if s == (1 if cauchy else -1) else sub  # the ratio's sign, s or -s
    n = len(out)
    for _ in range(abs(power)):
        vals = [0]
        while (v := vals[-1] + a + gap * (len(vals) - 1)) < n:
            vals.append(v)
        h = out[: n - vals[-1]]
        for m in reversed(range(len(vals) - 1)):
            div_binomial(h, d * (m + 1), -1)
            if cauchy:
                div_binomial(h, a + d * m, -s)
            sh = a + gap * m
            h[:] = map(shift_in, out[sh : n - vals[m]], h)
            h[0:0] = out[:sh]
        out[:] = h


def pochhammer(spec: PochhammerSpec, order: int) -> TruncatedSeries:
    """Expand a Pochhammer product to the given order by Euler's sum (see
    :func:`apply_pochhammer`); terms from q^order on contribute nothing."""
    if order <= 0:
        return TruncatedSeries.zero(order)
    out = [1] + [0] * (order - 1)
    apply_pochhammer(out, spec, 1)
    return TruncatedSeries._trusted(0, out, order)


def eta(k: int, order: int) -> TruncatedSeries:
    """``l_k = (q^k;q^k)_inf`` by the pentagonal number sum.

    O(sqrt(order/k)) terms, cheap enough to recompute on every call, so it is
    not memoised.  The result doubles as a standing check of the pentagonal
    expansion against Euler's sum for the same product.
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

    The expansion goes grid by grid.  A factor's grid is k for ``l_k`` and
    gcd(a, d) for ``(±q^a; q^d)_inf``: the factor is a series in q^grid.
    Asked for n coefficients, the expansion
    - drops every factor whose grid is n or more, which is 1 below q^n;
    - when every grid shares a g > 1, expands the product with every
      index divided by g at ``ceil(n/g)`` and spreads the coefficients g
      apart, so the work and memory stay bounded by the order however large
      g is;
    - otherwise picks the grid d > 1 where expanding its multiples first
      saves the most pass work, expands those factors first (which divides
      their grids by d), and applies the other factors at full length.  The
      saving is estimated as ``sum |e| (1 - 1/d) / sqrt(grid)`` over the
      multiples of d, less the free first multiplication that the product
      loses: a product started from 1 multiplies its first ``l_k`` numerator
      in at the cost of one nonzero, not of a pass of 1/sqrt(k).  When no d
      saves anything, every factor goes in at full length.
    No index is ever factored: d is one of the grids present, and each
    level either divides n by at least 2 or is followed by one that does.
    At every level the numerator factors go in before the denominator
    factors, so the passes run on small integers.  The Pochhammer factors
    are applied to a coefficient list as nested Euler or Cauchy sums
    (:func:`apply_pochhammer`); the ``l_k`` factors are multiplied in or
    divided out one power at a time, so that every division is by a sparse
    pentagonal series.
    """
    if isinstance(spec, dict):
        spec = EtaQuotientSpec(spec)
    if order <= 0:
        return TruncatedSeries.zero(order)
    return _expand([*spec.exponents.items(), *spec.pochs.items()], order)


def _grid(factor: int | PochhammerSpec) -> int:
    """The g for which the factor ``l_k`` (given as k) or a Pochhammer
    product is a series in q^g: k, or gcd(a, d) for ``(±q^a; q^d)_inf``."""
    if isinstance(factor, PochhammerSpec):
        return gcd(factor.base_exp, factor.step)
    return factor


def _divided(factor: int | PochhammerSpec, g: int) -> int | PochhammerSpec:
    """The factor with q^g replaced by q; g divides its grid."""
    if isinstance(factor, PochhammerSpec):
        return PochhammerSpec(factor.sign, factor.base_exp // g, factor.step // g)
    return factor // g


def _in_turn(factor: tuple[int | PochhammerSpec, int]) -> tuple[bool, bool]:
    """The order factors go in: numerators first, and at each sign the
    Pochhammer factors, which work on a list in place, before the l_k factors."""
    return factor[1] < 0, isinstance(factor[0], int)


def _free_pass(factors: list[tuple[int | PochhammerSpec, int]]) -> float:
    """The pass work, in the units of :func:`eta_quotient`'s estimate, that
    expanding ``factors`` from 1 saves: its first pass reads one nonzero when
    it multiplies by an ``l_k``, where a pass over a dense list costs 1/sqrt(k)."""
    x, e = min(factors, key=_in_turn, default=(None, 0))
    return 1 / sqrt(x) if isinstance(x, int) and e > 0 else 0


def _expand(factors: list[tuple[int | PochhammerSpec, int]], n: int) -> TruncatedSeries:
    """The product of ``(k or Pochhammer spec, power)`` factors below q^n,
    n >= 1, by the grid-by-grid steps of :func:`eta_quotient`."""
    factors = [(x, e) for x, e in factors if e and _grid(x) < n]
    grids = {_grid(x) for x, _ in factors}
    g = gcd(*grids)
    if g > 1:
        inner = _expand([(_divided(x, g), e) for x, e in factors], -(-n // g))
        out = [0] * n
        out[::g] = inner.coeffs
        return TruncatedSeries._trusted(0, out, n)
    saved = {}
    for d in sorted(grids - {1}):
        group = [(x, e) for x, e in factors if _grid(x) % d == 0]
        saved[d] = (
            sum(abs(e) * (1 - 1 / d) / sqrt(_grid(x)) for x, e in group)
            + _free_pass(group) / d - _free_pass(factors)
        )
    d = max(saved, key=saved.get, default=None)
    if d is not None and saved[d] > 0:
        acc = _expand([(x, e) for x, e in factors if _grid(x) % d == 0], n)
        factors = [(x, e) for x, e in factors if _grid(x) % d]
    else:
        acc = TruncatedSeries.one(n)
    for x, e in sorted(factors, key=_in_turn):
        if isinstance(x, PochhammerSpec):
            out = list(acc.coeffs)
            apply_pochhammer(out, x, e)
            acc = TruncatedSeries._trusted(0, out, n)
        else:
            s = eta(x, n)
            for _ in range(abs(e)):
                acc = acc * s if e > 0 else acc / s
    return acc


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

