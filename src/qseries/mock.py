"""Coefficient streams for the eight q-hypergeometric sums under study.

Each sum is stated once, as its row of ``_TERMS``, copied from the paper's
definition; the valuation schedule, the signs and the incremental route's
factors are all read from that row.

``_compute`` is the one place a stream is expanded, by one of two routes.

* ``lambda`` and ``nu``, whose terms start at q^n and q^(n+1), come from
  Hecke-type double sums (indefinite theta series)::

      psi(q) lambda(q) = sum_{n>=0} sum_{|j|<=n} (-1)^(n+j) q^(3n(n+1)/2 - j^2)
      phi(-q) nu(q)    = f_{2,6,6}(q^3, q^4, q) - f_{2,6,6}(q, q^2, q)

  with ``psi(q) = sum_{k>=0} q^(k(k+1)/2)``, ``phi(-q) = sum_m (-1)^m q^(m^2)``
  and Hickerson-Mortenson's ``f_{a,b,c}(x, y, q) = sum_{sg(r)=sg(s)} sg(r)
  (-1)^(r+s) x^r y^s q^(a r(r-1)/2 + b r s + c s(s-1)/2)``, where sg(r) is
  +1 for r >= 0 and -1 otherwise.  The lambda identity is Andrews and
  Hickerson's (Adv. Math. 89, 1991).  The nu identity was fitted by a search
  over such sums and is not proven: it matches the incremental route in
  every coefficient below q^20000 (the tests check below q^3000), so nu's
  coefficients from q^20000 up to ``claims.MAX_ORDER`` rest on the fitted
  identity alone.  It is not derived from any relation the claim registry
  verifies.  Each numerator is enumerated lattice point by lattice point
  (O(order) terms) and divided once by the theta series, a division that
  touches only its O(sqrt(order)) nonzeros.
* the other six streams are summed by ``_incremental`` in nested (Horner)
  form, from the last term inward: each level multiplies one list by the
  ratio of consecutive terms (``_step_factors``, O(order) per term) and
  adds that level's +-1.  For lambda and nu that sum is O(order^2); it
  stays callable for them as the deep cross-check the tests run.

A third, slow reference route rebuilds every term from scratch out of
finite Pochhammer products.  It keeps its own copy of each definition on
purpose, its power of q included, so a wrong ``_TERMS`` row shows up as a
disagreement: it shares no code with either fast route.

Series are zero-valuation power series in q; argument twists such as
``sigma(-q)`` or ``mu(-q^2)`` are exponent-indexed sign/stretch transforms
applied afterwards (``TruncatedSeries.alternate`` / ``substitute``).
"""

from __future__ import annotations

import enum

from . import products
from .series import TruncatedSeries, div_binomial, mul_binomial


class MockThetaId(enum.Enum):
    MU = "mu"
    SIGMA = "sigma"
    BETA = "beta"
    LAMBDA = "lambda"
    V = "v"
    NU = "nu"
    PHI6 = "phi6"
    PSI6 = "psi6"

    @classmethod
    def from_name(cls, name: str) -> "MockThetaId":
        try:
            return cls(name.lower())
        except ValueError:
            raise KeyError(f"unknown mock theta function {name!r}") from None


# Row (sign, valuation, numerators, denominators): term n is sign^n q^valuation(n)
# times a quotient of products, each (s, a, d, k, j) meaning (s q^a; q^d)_(k n + j).
_TERMS = {
    MockThetaId.MU: (-1, lambda n: n * n, [(1, 1, 2, 1, 0)], [(-1, 2, 2, 1, 0)] * 2),
    MockThetaId.SIGMA: (1, lambda n: (n + 1) * (n + 2) // 2, [(-1, 1, 1, 1, 0)], [(1, 1, 2, 1, 1)]),
    MockThetaId.BETA: (1, lambda n: 3 * n * n + 3 * n + 1, [], [(1, 1, 3, 1, 1), (1, 2, 3, 1, 1)]),
    MockThetaId.LAMBDA: (-1, lambda n: n, [(1, 1, 2, 1, 0)], [(-1, 1, 1, 1, 0)]),
    MockThetaId.V: (1, lambda n: (n + 1) ** 2, [(-1, 1, 2, 1, 0)], [(1, 1, 2, 1, 1)]),
    MockThetaId.NU: (1, lambda n: n + 1, [(-1, 1, 1, 2, 1)], [(1, 1, 2, 1, 1)]),
    MockThetaId.PHI6: (-1, lambda n: n * n, [(1, 1, 2, 1, 0)], [(-1, 1, 1, 2, 0)]),
    MockThetaId.PSI6: (-1, lambda n: (n + 1) ** 2, [(1, 1, 2, 1, 0)], [(-1, 1, 1, 2, 1)]),
}


def valuation_schedule(mock_id: MockThetaId | str, n: int) -> int:
    """Exact q-valuation of term n; strictly increasing in n for every id."""
    if isinstance(mock_id, str):
        mock_id = MockThetaId.from_name(mock_id)
    if n < 0:
        raise ValueError("term index must be nonnegative")
    return _TERMS[mock_id][1](n)


def _step_factors(
    mock_id: MockThetaId, n: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Binomial factors turning the term-(n-1) ratio into the term-n ratio.

    Returns ``(numerator, denominator)``; each entry ``(e, c)`` stands for the
    factor ``(1 + c q^e)``, multiplied in for the numerator and divided out
    for the denominator: what each product of the row gains as its length
    grows from k(n-1)+j (0 at n = 0) to kn+j, factor i of (s q^a; q^d)_m
    being (1 - s q^(a + d i)).
    """
    return tuple(
        [
            (a + d * i, -s)
            for s, a, d, k, j in prods
            for i in range(k * (n - 1) + j if n else 0, k * n + j)
        ]
        for prods in _TERMS[mock_id][2:]  # numerators, denominators
    )


def _compute(mock_id: MockThetaId, order: int) -> TruncatedSeries:
    if mock_id is MockThetaId.LAMBDA:
        return _lambda_hecke(order)
    if mock_id is MockThetaId.NU:
        return _nu_hecke(order)
    return _incremental(mock_id, order)


def _lambda_hecke(order: int) -> TruncatedSeries:
    """lambda below ``order`` as its Hecke-type numerator divided by psi(q)."""
    if order <= 0:
        return TruncatedSeries.zero(order)
    num = [0] * order
    n = 0
    while n * (n + 3) // 2 < order:  # row n's smallest exponent, at |j| = n
        top = 3 * n * (n + 1) // 2
        for j in range(-n, n + 1):
            e = top - j * j
            if e < order:
                num[e] += -1 if (n + j) % 2 else 1
        n += 1
    return TruncatedSeries._trusted(0, num, order) / products.psi(order)


def _nu_hecke(order: int) -> TruncatedSeries:
    """nu below ``order`` as its Hecke-type numerator divided by phi(-q)."""
    if order <= 0:
        return TruncatedSeries.zero(order)
    num = [0] * order
    for sign, i, j in ((1, 3, 4), (-1, 1, 2)):
        # sign * f_{2,6,6}(q^i, q^j, q), over the cones r, s >= 0 and r, s <= -1.
        # In both cones a row (fixed r) grows with |s|, the row starts grow
        # with |r|, and no exponent is negative.
        for cone in (1, -1):
            r = 0 if cone == 1 else -1
            while True:
                s = 0 if cone == 1 else -1
                e = r * (r - 1) + 6 * r * s + 3 * s * (s - 1) + i * r + j * s
                if e >= order:
                    break
                while e < order:
                    num[e] += -sign * cone if (r + s) % 2 else sign * cone
                    s += cone
                    e = r * (r - 1) + 6 * r * s + 3 * s * (s - 1) + i * r + j * s
                r += cone
    return TruncatedSeries._trusted(0, num, order) / products.phi(order).alternate()


def _incremental(mock_id: MockThetaId, order: int) -> TruncatedSeries:
    """Sum the stream in nested form, from its last term inward.

    With T_n the term n and s_n its sign, the stream is s_0 T_0 G_0 where
    G_n = 1 + (s_{n+1} T_{n+1} / s_n T_n) G_{n+1} and the last term's G is 1.
    One list holds s_n G_n below ``order - val_n``: step n + 1's factors go
    through the binomial kernels, the valuation gap to term n goes in at the
    front, and s_n is added to the constant term.  Keeping the sign in the
    list spares an alternating stream any negation pass.
    """
    if order <= 0:
        return TruncatedSeries.zero(order)
    vals = []
    while (val := valuation_schedule(mock_id, len(vals))) < order:
        vals.append(val)
    if not vals:  # the first term starts at or above the order
        return TruncatedSeries._trusted(0, [0] * order, order)
    base = _TERMS[mock_id][0]
    start = vals[-1]
    acc = [0] * (order - start)
    for n in reversed(range(len(vals))):
        acc[0:0] = [0] * (start - vals[n])
        start = vals[n]
        sign = base**n
        acc[0] = sign
        nums, dens = _step_factors(mock_id, n)
        for e, c in nums:
            mul_binomial(acc, e, c)
        for e, c in dens:
            div_binomial(acc, e, c)
        # Guard for the valuation invariant: every factor is a unit series.
        assert acc[0] == sign, (mock_id, n)
    acc[0:0] = [0] * start
    return TruncatedSeries._trusted(0, acc, order)


_cache: dict[MockThetaId, TruncatedSeries] = {}


def mock_series(mock_id: MockThetaId | str, order: int) -> TruncatedSeries:
    """Exact q-expansion of the chosen function below the given order.

    Completed series are memoised per id and only ever grow (write-once per
    order), so repeated verification passes share the largest expansion.
    """
    if isinstance(mock_id, str):
        mock_id = MockThetaId.from_name(mock_id)
    cached = _cache.get(mock_id)
    if cached is not None and cached.order >= order:
        return cached.truncate(order)
    _cache[mock_id] = _compute(mock_id, order)  # deeper than anything cached
    return _cache[mock_id]


# -- reference route -------------------------------------------------------

def _finite(sign: int, base: int, step: int, length: int, order: int) -> TruncatedSeries:
    # Generic products of from_terms factors on purpose: the oracle shares
    # no code with the in-place binomial kernel of the fast path.
    acc = TruncatedSeries.one(order)
    for e in range(base, min(base + length * step, order), step):
        acc = acc * TruncatedSeries.from_terms({0: 1, e: -sign}, order)
    return acc


# The power of q that term n carries, restated from the paper's definitions
# so that the reference checks ``_TERMS``'s valuations as well.
_REFERENCE_POWER = {
    MockThetaId.MU: lambda n: n * n,
    MockThetaId.SIGMA: lambda n: (n + 1) * (n + 2) // 2,
    MockThetaId.BETA: lambda n: 3 * n * n + 3 * n + 1,
    MockThetaId.LAMBDA: lambda n: n,
    MockThetaId.V: lambda n: (n + 1) ** 2,
    MockThetaId.NU: lambda n: n + 1,
    MockThetaId.PHI6: lambda n: n * n,
    MockThetaId.PSI6: lambda n: (n + 1) ** 2,
}


def mock_term_reference(mock_id: MockThetaId, n: int, order: int) -> TruncatedSeries:
    """Term n built from scratch with non-incremental Pochhammer products."""
    one = TruncatedSeries.one(order)
    if mock_id is MockThetaId.MU:
        num = _finite(1, 1, 2, n, order)
        den = _finite(-1, 2, 2, n, order) ** 2
        t = num / den
        sign = -1 if n % 2 else 1
    elif mock_id is MockThetaId.SIGMA:
        t = _finite(-1, 1, 1, n, order) / _finite(1, 1, 2, n + 1, order)
        sign = 1
    elif mock_id is MockThetaId.BETA:
        t = one / (_finite(1, 1, 3, n + 1, order) * _finite(1, 2, 3, n + 1, order))
        sign = 1
    elif mock_id is MockThetaId.LAMBDA:
        t = _finite(1, 1, 2, n, order) / _finite(-1, 1, 1, n, order)
        sign = -1 if n % 2 else 1
    elif mock_id is MockThetaId.V:
        t = _finite(-1, 1, 2, n, order) / _finite(1, 1, 2, n + 1, order)
        sign = 1
    elif mock_id is MockThetaId.NU:
        t = _finite(-1, 1, 1, 2 * n + 1, order) / _finite(1, 1, 2, n + 1, order)
        sign = 1
    elif mock_id is MockThetaId.PHI6:
        t = _finite(1, 1, 2, n, order) / _finite(-1, 1, 1, 2 * n, order)
        sign = -1 if n % 2 else 1
    else:
        t = _finite(1, 1, 2, n, order) / _finite(-1, 1, 1, 2 * n + 1, order)
        sign = -1 if n % 2 else 1
    power = _REFERENCE_POWER[mock_id](n)
    t = t.truncate(order - power).shift(power)
    return t if sign == 1 else -t


def mock_series_reference(mock_id: MockThetaId | str, order: int) -> TruncatedSeries:
    """Slow oracle: sum of from-scratch terms, for cross-validating the fast path."""
    if isinstance(mock_id, str):
        mock_id = MockThetaId.from_name(mock_id)
    acc = TruncatedSeries(0, [0] * order, order)
    n = 0
    while _REFERENCE_POWER[mock_id](n) < order:
        acc = acc + mock_term_reference(mock_id, n, order)
        n += 1
    return acc
