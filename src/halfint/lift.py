"""The exact assembly of the companion form h, and the eigenvalue profile
it reads.

The quotient of a half-integral coefficient by the corresponding theta
coefficient factors as a product of local terms, one per prime.  This
module assembles the second basis vector h from g exactly, in integers,
through a three-tier recursion (square-free indices, square parts
supported at 2 and the bad primes, then degree-p² Hecke extensions at
the remaining primes).  The floating-complex evaluation of the same
local terms, a diagnostic for small tables, is `halfint.localfactors`.

Both read one number per prime from a `LiftProfile`: the eigenvalue b_p
of the degree-p matrix on the eigenline.  At a prime dividing the level
b_p is a sign, and the level involution there has sign w_p = -b_p,
which `LiftProfile.involution_sign` alone computes.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .errors import MissingEigenvalueError, PrecisionError
from .numth import (
    factorize,
    fundamental_discriminant,
    hilbert,
    is_squarefree,
    kronecker,
    prime_factors,
    squarefree_split,
)
from .qexp import QExpansion
from .value import Value

__all__ = [
    "LiftProfile",
    "power_sums",
    "kronecker_gate",
    "assemble_h",
]


class LiftProfile(Value):
    """The eigenvalues of one eigenline, which is all the local factors read.

    `eigen` maps each prime to its degree-matrix eigenvalue b_p: 2, every
    prime dividing the level (where b_p is a sign), and whatever good odd
    primes the caller plans to use.  The level involution at p | N has
    sign w_p = -b_p (`involution_sign`), and these signs multiply to -1.
    `bad`, the primes dividing the level in increasing order, is derived
    once here.  The weight is fixed at 3/2 for the whole pipeline.
    Immutable, `eigen` being a read-only view of a private copy of the
    caller's dict, and equal by (level, eigen, bad); unhashable, since
    `eigen` is a mapping.
    """

    __slots__ = ("level", "eigen", "bad")
    __hash__ = None

    def __init__(self, level: int, eigen: dict[int, int]):
        if level < 3 or level % 2 == 0 or not is_squarefree(level):
            raise ValueError(f"level {level} is not odd and square-free")
        if 2 not in eigen:
            raise ValueError("no eigenvalue stored at 2")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "eigen", MappingProxyType(dict(eigen)))
        object.__setattr__(self, "bad", tuple(prime_factors(level)))
        for p in self.bad:
            if eigen.get(p) not in (1, -1):
                raise ValueError(f"eigenvalue at the level prime {p} is not a sign")
        if math.prod(self.involution_sign(p) for p in self.bad) != -1:
            raise ValueError("involution signs multiply to +1 (even root number)")

    def eigenvalue(self, p: int) -> int:
        if p not in self.eigen:
            raise MissingEigenvalueError(f"no eigenvalue stored for prime {p}")
        return self.eigen[p]

    def involution_sign(self, p: int) -> int:
        """w_p = -b_p, the sign of the level involution at p | N."""
        return -self.eigen[p]



def power_sums(b2: int, smax: int) -> list[int]:
    """Integers T_0..T_smax with T_s = b₂T_{s−1} − 2T_{s−2}, T_0 = 2, T_1 = b₂.

    T_s equals 2^{s/2}(α₂^s + α₂′^s) for the alpha pair of b₂.
    """
    if smax < 0:
        raise ValueError("need smax >= 0")
    vals = [2, b2]
    while len(vals) <= smax:
        vals.append(b2 * vals[-1] - 2 * vals[-2])
    return vals[: smax + 1]


def kronecker_gate(profile: LiftProfile, t: int) -> bool:
    """Local sign condition at the bad primes for a square-free index."""
    disc = fundamental_discriminant(t)
    for p in profile.bad:
        if disc % p != 0 and kronecker(disc, p) != profile.involution_sign(p):
            return False
    return True


def assemble_h(g: QExpansion, profile: LiftProfile, prec: int) -> QExpansion:
    """Exact companion form h = √2(f₁ + f₂), built from g's coefficients.

    Indices are handled in three tiers: square-free n directly from g;
    square parts supported at 2 and the bad primes through the integer
    power sums T_s; remaining square parts through the degree-p² Hecke
    recursion at the largest good prime.  Indices failing the gate
    vanish.  Every tier multiplies coefficients of g, or of h at smaller
    indices, by integers, so h is integral because g is.
    """
    if g.prec < 4 * prec:
        raise PrecisionError(
            f"need theta coefficients through {4 * prec}, have {g.prec}"
        )
    b2 = profile.eigenvalue(2)
    ts = power_sums(b2, prec.bit_length() // 2 + 2)
    coeffs: dict[int, int] = {}
    for n in range(1, prec + 1):
        core, y = squarefree_split(n)
        if not kronecker_gate(profile, core):
            continue
        if y == 1:
            if n % 4 == 3:
                value = g[n] * (b2 - 2 * hilbert(2, n, 2))
            else:
                value = 2 * g[4 * n]
        else:
            square_support = factorize(y)
            good = [p for p in square_support if p != 2 and p not in profile.bad]
            if not good:
                s = square_support.get(2, 0)
                bad_scale = 1
                for p, e in square_support.items():
                    if p in profile.bad:
                        bad_scale *= profile.eigenvalue(p) ** e
                if core % 4 == 3:
                    value = (
                        g[core]
                        * (ts[s + 1] - hilbert(2, core, 2) * ts[s])
                        * bad_scale
                    )
                else:
                    # core is square-free and passes the same gate, so
                    # it was stored at tier one as 2·g[4·core]; half of
                    # that times T_s is exact
                    value = ts[s] * g[4 * core] * bad_scale
            else:
                p = max(good)
                m = n // (p * p)
                value = coeffs.get(m, 0) * (profile.eigenvalue(p) - kronecker(-m, p))
                if n % p**4 == 0:
                    value -= p * coeffs.get(n // p**4, 0)
        if value:
            coeffs[n] = value
    return QExpansion(prec, coeffs)
