"""Small number-theoretic helpers: primality, the Legendre symbol, and the
exact progression indices of the built-in congruence families.
"""

from __future__ import annotations

from .records import FrozenRecord


class DomainError(ValueError):
    """A parameter outside the mathematical domain of the identity."""


class PreconditionError(ValueError):
    """A family hypothesis (Legendre condition, integrality) does not hold.

    Verification treats this as "skipped", never as "pass": a family theorem
    must not be reported verified vacuously.
    """


# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.

    Raises :class:`PreconditionError` for n at or above ``_PROVEN_BELOW``,
    where these bases no longer decide primality.
    """
    if n < 2:
        return False
    if n >= _PROVEN_BELOW:
        raise PreconditionError(
            f"primality of {n} is undecided: the test is proven only below {_PROVEN_BELOW}"
        )
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(w: int, p: int) -> int:
    """Legendre symbol (w/p) by Euler's criterion; 0 iff p divides w."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    r = pow(w % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


class FamilyIndex(FrozenRecord):
    """One arithmetic progression ``A*n + B`` carrying a mod-M vanishing claim."""

    A: int
    B: int
    M: int


class FamilySpec(FrozenRecord):
    """Shape of one congruence family.

    Indices are ``A = c * p^(2a+2)`` and ``B = c * p^(2a+1) * j + (d *
    p^(2a+2) + 1) / e`` for j = 1..p-1, claimed to vanish mod M on the
    coefficient stream of ``mock``.
    """

    name: str
    legendre_w: int
    min_p: int
    c: int
    d: int
    e: int
    modulus: int
    mock: str

    def step_exceeds(self, p: int, alpha: int, bound: int) -> bool:
        """Whether the step ``A = c * p^(2*alpha+2)`` exceeds ``bound``, for p >= 2.

        The power is raised one factor at a time and abandoned once past
        ``bound``, so a huge p or alpha costs a few multiplications.
        """
        step = self.c
        for _ in range(2 * alpha + 2):
            if step > bound:
                break
            step *= p
        return step > bound


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec("thm3.3ii", legendre_w=-2, min_p=3, c=2, d=3, e=4, modulus=2, mock="v"),
        FamilySpec("thm3.3iii", legendre_w=-18, min_p=5, c=6, d=19, e=4, modulus=6, mock="v"),
        FamilySpec("thm4.3", legendre_w=-2, min_p=5, c=2, d=11, e=12, modulus=2, mock="sigma"),
    )
}


def family_indices(family: str, p: int, alpha: int) -> list[FamilyIndex]:
    """Expand a family into its p-1 concrete progressions for one (p, alpha).

    Raises :class:`PreconditionError` when p does not qualify (wrong Legendre
    value, too small, composite) or the offset fails to be an exact integer.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown congruence family {family!r}")
    spec = FAMILIES[family]
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"p = {p} is not an odd prime")
    if p < spec.min_p:
        raise PreconditionError(f"p = {p} is below the family minimum {spec.min_p}")
    if legendre(spec.legendre_w, p) != -1:
        raise PreconditionError(
            f"({spec.legendre_w}/{p}) != -1, so p = {p} does not qualify"
        )
    num = spec.d * p ** (2 * alpha + 2) + 1
    offset, rem = divmod(num, spec.e)
    if rem:
        raise PreconditionError(
            f"offset ({spec.d}*p^{2 * alpha + 2}+1)/{spec.e} is not an integer for p = {p}"
        )
    A = spec.c * p ** (2 * alpha + 2)
    step = spec.c * p ** (2 * alpha + 1)
    return [FamilyIndex(A, step * j + offset, spec.modulus) for j in range(1, p)]
