"""Definite rational quaternion algebras with exact arithmetic.

An algebra here is B = (-a, -b | Q) with a, b positive integers:
i^2 = -a, j^2 = -b, k = ij = -ji, k^2 = -ab.  Elements are integer
4-tuples in the basis (1, i, j, k); a rational element is such a row
over a denominator kept beside it, as the rows of a lattice are
(`lattice.Lattice4`).  Products, norms and traces of rows are again
integers, so no arithmetic here needs a denominator.  Definiteness
(a, b > 0) makes the reduced norm positive definite, which everything
downstream relies on.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable

from .errors import EvenRootNumberError, SearchExhaustedError
from .numth import divisors, hilbert, hilbert_support, is_prime
from .value import Value

# (x0, x1, x2, x3), integer coordinates in the basis (1, i, j, k)
Quat = tuple

# the largest a*b that `algebra_ramified_at` tries
SEARCH_BOUND = 10**6


def conj(x: Quat) -> Quat:
    """Standard involution: fixes 1, negates i, j, k."""
    return (x[0], -x[1], -x[2], -x[3])


@lru_cache(maxsize=64)
def _ramified(a: int, b: int) -> tuple[int, ...]:
    return tuple(
        p for p in hilbert_support(-a, -b) if hilbert(-a, -b, p) == -1
    )


class QuaternionAlgebra(Value):
    """B = (-a, -b) over Q, with a, b > 0 (definite).  Immutable, equal by
    (a, b) and hashable."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a <= 0 or b <= 0:
            raise ValueError("definite algebras need a, b > 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def mul(self, x: Quat, y: Quat) -> Quat:
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 - a * x1 * y1 - b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 + b * (x2 * y3 - x3 * y2),
            x0 * y2 + x2 * y0 - a * (x1 * y3 - x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def nrd(self, x: Quat) -> int:
        """Reduced norm x * conj(x)."""
        return self.pair(x, x)

    def pair(self, x: Quat, y: Quat) -> int:
        """Polarization of the norm form: trd(x * conj(y)) / 2."""
        a, b = self.a, self.b
        return x[0] * y[0] + a * x[1] * y[1] + b * x[2] * y[2] + a * b * x[3] * y[3]

    @property
    def ramified(self) -> tuple[int, ...]:
        """Finite primes where B does not split (sorted)."""
        return _ramified(self.a, self.b)

    @property
    def discriminant(self) -> int:
        """Product of the finite ramified primes."""
        out = 1
        for p in self.ramified:
            out *= p
        return out

    def describe(self) -> dict:
        return {"a": self.a, "b": self.b, "ramified": list(self.ramified)}


def algebra_ramified_at(finite_primes: Iterable[int]) -> QuaternionAlgebra:
    """Definite algebra with finite ramification exactly `finite_primes`.

    The set must consist of distinct primes, odd in number (the infinite
    place makes the total even).  Presentations are scanned by a*b
    ascending, then a ascending, so the result is canonical.  Only the
    multiples of the odd target primes' product are tried for a*b: the
    Hilbert symbol (-a, -b)_p is 1 at an odd prime p not dividing ab, so
    every other a*b leaves some odd target prime unramified.  Raises
    SearchExhaustedError past a*b = SEARCH_BOUND.
    """
    target = tuple(sorted(set(finite_primes)))
    if len(target) % 2 == 0:
        raise EvenRootNumberError(
            f"no definite algebra ramifies exactly at {list(target)}: "
            "an odd number of finite primes is required"
        )
    for p in target:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    step = math.prod(p for p in target if p != 2)
    for prod in itertools.count(step, step):
        if prod > SEARCH_BOUND:
            raise SearchExhaustedError(
                f"no presentation with a*b <= {SEARCH_BOUND} ramifies at {list(target)}"
            )
        for a in divisors(prod):
            if _ramified(a, prod // a) == target:
                return QuaternionAlgebra(a, prod // a)
