"""Restricted partition counters: the combinatorial ground truth, and the
weighted theta streams of the claim language's ``stream(kind, s)``.

Every rule set has two independent routes.  ``count_signed`` is a plain
backtracking enumerator over colored multisets of parts, one walk that counts
every size up to its bound, and is the trusted oracle; ``count_dp`` builds the
same counts through the generating-function product, one Pochhammer factor per
residue class, expanded grid by grid as one ``products.eta_quotient``, and is
the fast path.
Disagreement between the two localises bugs.

Colors are labeled: a part value v in color a and the same value in color b
are distinct parts, which is exactly what the products (1 - q^v)^(-r) count.
A negative bound counts nothing: ``count_signed`` returns ``[]`` and
``iter_colored_partitions`` yields nothing.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from .products import (
    EtaQuotientSpec,
    PochhammerSpec,
    eta,
    eta_quotient,
    jacobi_cube,
    theta_f,
)
from .records import FrozenRecord
from .series import SeriesError, TruncatedSeries


class ResidueRule(FrozenRecord):
    """Coloring/distinctness/sign rule for one residue class of parts.

    ``colors = 0`` forbids parts in the class; ``signed_by_count`` weights a
    partition by (-1)^(number of parts in this class).
    """

    colors: int
    distinct: bool
    signed_by_count: bool

    def __init__(self, colors: int = 1, distinct: bool = False, signed_by_count: bool = False):
        if colors < 0:
            raise ValueError(f"colors must be nonnegative, got {colors}")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "signed_by_count", signed_by_count)


class PartitionRuleSet(FrozenRecord):
    """One ResidueRule per residue class modulo ``len(rules)``, in residue
    order, so that the rule for a part v is ``rules[v % len(rules)]``."""

    rules: tuple[ResidueRule, ...]

    def __init__(self, rules: tuple[ResidueRule, ...]):
        if not rules:
            raise ValueError("a rule set needs a rule for at least one residue class")
        object.__setattr__(self, "rules", rules)

    @classmethod
    def from_map(
        cls, modulus: int, entries: dict[int, tuple[int, bool, bool]]
    ) -> "PartitionRuleSet":
        """Build from ``{residue: (colors, distinct, signed_by_count)}``.

        Unmentioned residues default to one ordinary color.
        """
        return cls(tuple(ResidueRule(*entries.get(r, ())) for r in range(modulus)))


RULESETS: dict[str, PartitionRuleSet] = {
    # parts 1,3 mod 4 plain; 2 mod 4 in two colors; multiples of 4 distinct,
    # counted with sign by their number
    "thm3.2": PartitionRuleSet.from_map(
        4, {1: (1, False, False), 3: (1, False, False), 2: (2, False, False), 0: (1, True, True)}
    ),
    # parts 1,5 mod 6 two colors; 3 mod 6 three colors; multiples of 6
    # distinct and signed; 2,4 mod 6 forbidden
    "thm4.2": PartitionRuleSet.from_map(
        6,
        {
            1: (2, False, False),
            5: (2, False, False),
            3: (3, False, False),
            0: (1, True, True),
            2: (0, False, False),
            4: (0, False, False),
        },
    ),
    # parts 1,3,5 mod 6 plain; 2,4 mod 6 two colors; multiples of 6 distinct signed
    "thm5.2": PartitionRuleSet.from_map(
        6,
        {
            1: (1, False, False),
            3: (1, False, False),
            5: (1, False, False),
            2: (2, False, False),
            4: (2, False, False),
            0: (1, True, True),
        },
    ),
    # parts 1,5 mod 6 three colors; 3 mod 6 plain; multiples of 6 distinct
    # signed; 2,4 mod 6 forbidden
    "thm6.1": PartitionRuleSet.from_map(
        6,
        {
            1: (3, False, False),
            5: (3, False, False),
            3: (1, False, False),
            0: (1, True, True),
            2: (0, False, False),
            4: (0, False, False),
        },
    ),
    "unrestricted": PartitionRuleSet.from_map(1, {0: (1, False, False)}),
    "distinct.signed": PartitionRuleSet.from_map(1, {0: (1, True, True)}),
}


def count_signed(ruleset: PartitionRuleSet, bound: int) -> list[int]:
    """Signed counts of the colored partitions of every n in 0..bound (``[]``
    for a negative bound), by one exhaustive backtracking walk.

    Each level picks the next part (value, color) the partition uses, from
    those after the previous level's and largest first, and its multiplicity
    k >= 1, which leaves ``r = rem - k * value`` to the parts after it.  Every
    node of the walk is one colored partition, of size ``bound - r``, whose
    sign its parent's loop adds there, so the walk visits each admissible
    colored multiset of parts of size at most ``bound`` exactly once; its
    depth is the number of distinct parts.  Only a node with ``r >= value``
    is then called to walk its children: with ``r < value`` no later part
    fits, since each is at least ``value``.  That spares the call of about
    81% of the nodes on the registry's rule sets.  The time grows with the
    number of those partitions, about 3x per +5 of ``bound`` for thm6.1.
    """
    if bound < 0:
        return []
    rules = ruleset.rules
    m = len(rules)
    counts = [0] * (bound + 1)
    counts[0] = 1  # the empty partition, the root

    def after(value: int, color: int, rem: int, sign: int) -> None:
        for v in range(rem, value - 1, -1):
            rule = rules[v % m]
            top = 1 if rule.distinct else rem // v
            for c in range(rule.colors - 1, color if v == value else -1, -1):
                for k in range(1, top + 1):
                    r = rem - k * v
                    s = -sign if rule.signed_by_count and k % 2 else sign
                    counts[bound - r] += s
                    if r >= v:  # else no later part fits, and the node is childless
                        after(v, c, r, s)

    after(1, -1, bound, 1)  # every part (v, c) comes after (1, -1)
    return counts


def iter_colored_partitions(
    ruleset: PartitionRuleSet, n: int
) -> Iterator[tuple[tuple[tuple[int, int, int], ...], int]]:
    """Yield each colored partition of n as ((value, color, multiplicity), ...)
    together with its sign.  The walk of :func:`count_signed` rooted at n,
    kept to the nodes of size n: the parts of a partition come in increasing
    (value, color) order, and the partitions in increasing order of their
    multiplicities read from part (1, 0) up.
    """
    if n < 0:
        return
    rules = ruleset.rules
    m = len(rules)

    def after(value, color, rem, parts, sign):
        if rem == 0:
            yield parts, sign
            return
        for v in range(rem, value - 1, -1):
            rule = rules[v % m]
            top = 1 if rule.distinct else rem // v
            for c in range(rule.colors - 1, color if v == value else -1, -1):
                for k in range(1, top + 1):
                    s = -sign if rule.signed_by_count and k % 2 else sign
                    yield from after(v, c, rem - k * v, parts + ((v, c, k),), s)

    yield from after(1, -1, n, (), 1)


def count_dp(ruleset: PartitionRuleSet, order: int) -> TruncatedSeries:
    """Generating-function route: the series whose coefficients below
    ``order`` are ``count_signed(ruleset, order - 1)``.

    Each residue class a mod m with c colors is one Pochhammer factor from
    its least part a (m for a = 0): (q^a;q^m)^(-c) for ordinary parts,
    (-q^a;q^m)^c for distinct, and the signed variants (-q^a;q^m)^(-c) and
    (q^a;q^m)^c.  The product is one :func:`eta_quotient`, which expands the
    factors grid by grid, so a class whose residue shares a factor with m is
    summed at a fraction of the order.
    """
    m = len(ruleset.rules)
    pochs = {}
    for a, rule in enumerate(ruleset.rules):
        if rule.colors:
            sign = -1 if rule.distinct != rule.signed_by_count else 1
            pochs[PochhammerSpec(sign, a or m, m)] = rule.colors if rule.distinct else -rule.colors
    return eta_quotient(EtaQuotientSpec({}, pochs), order)


class ThetaStreamKind(enum.Enum):
    PENTAGONAL = "pentagonal"
    TRIANGULAR_JACOBI = "jacobi"
    SQUARE_PHI = "phi"
    TRIANGULAR_PSI = "psi"

    @classmethod
    def from_name(cls, name: str) -> "ThetaStreamKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise KeyError(f"unknown theta stream kind {name!r}") from None


def theta_stream(
    kind: ThetaStreamKind | str, scale: int, order: int
) -> TruncatedSeries:
    """The weighted exponent streams of the claim language's ``stream(kind, s)``,
    each one ``products`` generator with its exponents scaled by s (m >= 0 for
    jacobi and psi, every integer m for the others); the direct summation of
    the recurrence claims enumerates the same sums on its own:

    pentagonal:  sum (-1)^m q^(s m(3m-1)/2)         = l_s        eta(s, N)
    jacobi:      sum (-1)^m (2m+1) q^(s m(m+1)/2)   = l_s^3      jacobi_cube(N, s)
    phi:         sum (-1)^m q^(s m^2)               = phi(-q^s)  theta_f(-1, s, -1, s, N)
    psi:         sum q^(s m(m+1)/2)                 = psi(q^s)   theta_f(1, s, 1, 3s, N)
    """
    if isinstance(kind, str):
        kind = ThetaStreamKind.from_name(kind)
    if scale < 1:
        raise SeriesError(f"scale must be positive, got {scale}")
    if kind is ThetaStreamKind.PENTAGONAL:
        return eta(scale, order)
    if kind is ThetaStreamKind.TRIANGULAR_JACOBI:
        return jacobi_cube(order, scale)
    if kind is ThetaStreamKind.SQUARE_PHI:
        return theta_f(-1, scale, -1, scale, order)
    return theta_f(1, scale, 1, 3 * scale, order)  # TRIANGULAR_PSI

