"""Coefficient streams for the eight q-hypergeometric sums under study.

Each sum is stated once, as its row of ``_TERMS``, copied from the paper's
definition; the valuation schedule, the signs and the incremental route's
factors are all read from that row.

``_compute`` is the one place a stream is expanded, by one of two routes,
and it never expands a stream from q^0 twice: the expansion it keeps in
``_cache`` is resumable, so a read deeper than the cached order extends it
over the new coefficients only.

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
  (O(order) terms) and divided once by the theta series, a pull division
  that touches only its O(sqrt(order)) nonzeros.  An extension enumerates
  the numerator anew and continues the pull division from the cached
  quotient over the new range only (``_hecke``).
* the other six streams are summed by ``_nested`` in nested (Horner)
  form, from the last term inward: each level multiplies one list by the
  ratio of consecutive terms (``_step_factors``, O(order) per term) and
  adds that level's +-1.  Each binomial stage of a level keeps the last e
  values it reads (for a product its inputs, for a quotient its outputs),
  and an extension runs each stage over those and the new coefficients
  only.  ``_incremental`` is a fresh sum; for lambda and nu it is
  O(order^2) in time, keeps no windows, and stays callable for them as
  the deep cross-check the tests run.

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
from itertools import repeat

from . import products
from .series import TruncatedSeries, div_binomial, mul_binomial, pull_quotient


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
    """The stream below ``order``, from its cached expansion.

    A cached expansion shallower than ``order`` (none at all counts as
    order 0) is extended over the new coefficients only and kept in its
    place, so the cache only ever grows.
    """
    series, levels = _cache.get(mock_id, (None, None))
    if series is None or series.order < order:
        if mock_id in _HECKE:
            series, levels = _hecke(mock_id, series, order), None
        else:
            series, levels = _nested(mock_id, series, levels, order)
        _cache[mock_id] = series, levels
    return series.truncate(order)


def _lambda_numerator(order: int) -> list[int]:
    """psi(q) lambda(q) below ``order``, lattice point by lattice point."""
    num = [0] * order
    n = 0
    while n * (n + 3) // 2 < order:  # row n's smallest exponent, at |j| = n
        top = 3 * n * (n + 1) // 2
        for j in range(-n, n + 1):
            e = top - j * j
            if e < order:
                num[e] += -1 if (n + j) % 2 else 1
        n += 1
    return num


def _nu_numerator(order: int) -> list[int]:
    """phi(-q) nu(q) below ``order``, lattice point by lattice point."""
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
    return num


# the Hecke-type numerator and the theta series it is divided by
_HECKE = {
    MockThetaId.LAMBDA: (_lambda_numerator, products.psi),
    MockThetaId.NU: (_nu_numerator, lambda order: products.phi(order).alternate()),
}


def _hecke(mock_id: MockThetaId, series: TruncatedSeries | None, order: int) -> TruncatedSeries:
    """lambda or nu below ``order``: the quotient in ``series`` (none: an
    empty one) continued by the pull division of the numerator, enumerated
    anew to ``order``, by the theta series."""
    if order <= 0:
        return TruncatedSeries.zero(order)
    numerator, theta = _HECKE[mock_id]
    out = list(series.coeffs) if series else []
    pull_quotient(out, numerator(order), theta(order).coeffs)
    return TruncatedSeries._trusted(0, out, order)


def _stage(
    window: list[int], part: list[int], e: int, c: int, divide: bool
) -> tuple[list[int], list[int]]:
    """Multiply in, or divide out, the factor ``1 + c q^e`` over ``part``,
    the new coefficients of a list whose earlier ones the stage has seen.

    ``window`` is what the stage kept of the list's earlier coefficients:
    a product its last e inputs, a quotient its last e outputs, fewer near
    the list's start and none on a fresh list.  A quotient's first e
    outputs are its inputs, so with the kept outputs in front the kernel
    leaves them as they are and reads them as the outputs e back, on every
    route it takes.  Returns the new window and the new outputs.
    """
    part[0:0] = window
    if divide:
        div_binomial(part, e, c)
        kept = part[-e:]
    else:
        kept = part[-e:]
        mul_binomial(part, e, c)
    del part[: len(window)]
    return kept, part


def _nested(mock_id: MockThetaId, series: TruncatedSeries | None, levels: list | None,
            order: int) -> tuple[TruncatedSeries, list]:
    """Sum the stream in nested form, from its last term inward, resuming
    the expansion in ``series`` and ``levels`` (None: from nothing).

    With T_n the term n and s_n its sign, the stream is s_0 T_0 G_0 where
    G_n = 1 + (s_{n+1} T_{n+1} / s_n T_n) G_{n+1} and the last term's G is 1.
    Level n's list holds s_n G_n below ``order - val_n``: step n + 1's
    factors go through the binomial kernels, the valuation gap to term n
    goes in at the front, and s_n is added to the constant term.  Keeping
    the sign in the list spares an alternating stream any negation pass.

    Only the coefficients from the cached order up are new, so level n
    takes only the new part of level n + 1's list, and each stage runs the
    kernel over what it kept of the earlier ones (``_stage``) and the new
    part.  Levels of terms that start at or above the cached order are
    fresh: their lists are whole and their stages keep nothing yet.
    Returns the series and each level's kept windows, which are empty for
    lambda and nu: ``_compute`` never resumes those here.
    """
    if order <= 0:
        return TruncatedSeries.zero(order), []
    done = max(series.order, 0) if series else 0
    old = series.coeffs if series else ()
    vals = []
    while (val := valuation_schedule(mock_id, len(vals))) < order:
        vals.append(val)
    base = _TERMS[mock_id][0]
    resumed = mock_id not in _HECKE  # _compute extends lambda and nu by _hecke
    kept = [None] * len(vals)
    part, lo = [], order  # level n's new coefficients, from exponent lo up
    for n in reversed(range(len(vals))):
        start = max(done, vals[n])
        part[0:0] = [0] * (lo - start)
        lo = start
        fresh = vals[n] >= done
        if fresh:
            part[0] = sign = base**n
        nums, dens = _step_factors(mock_id, n)
        stages = [(e, c, False) for e, c in nums] + [(e, c, True) for e, c in dens]
        windows = repeat([]) if fresh else levels[n]
        kept[n] = []
        for (e, c, divide), window in zip(stages, windows):
            window, part = _stage(window, part, e, c, divide)
            if resumed:
                kept[n].append(window)
        # Guard for the valuation invariant: every factor is a unit series.
        assert not fresh or part[0] == sign, (mock_id, n)
    coeffs = [*old, *repeat(0, lo - done), *part]
    return TruncatedSeries._trusted(0, coeffs, order), kept


def _incremental(mock_id: MockThetaId, order: int) -> TruncatedSeries:
    """The stream below ``order`` summed afresh in nested form.  For lambda
    and nu it is O(order^2), and stays callable as the deep cross-check the
    tests run."""
    return _nested(mock_id, None, None, order)[0]


# id -> (the deepest expansion, the nested sum's windows; None for lambda and nu)
_cache: dict[MockThetaId, tuple[TruncatedSeries, list | None]] = {}


def mock_series(mock_id: MockThetaId | str, order: int) -> TruncatedSeries:
    """Exact q-expansion of the chosen function below the given order.

    Each stream's deepest expansion is memoised per id and only ever grows:
    a shallower request truncates it, and a deeper one extends it over the
    new coefficients only (``_compute``), never from q^0 again.
    """
    if isinstance(mock_id, str):
        mock_id = MockThetaId.from_name(mock_id)
    return _compute(mock_id, order)


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
