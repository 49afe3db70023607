"""The exact assembly of the companion form h, and the eigenvalue profile
it reads.

The quotient of a half-integral coefficient by the corresponding theta
coefficient factors as a product of local terms, one per prime.  This
module assembles the second basis vector h from g exactly, in integers,
by one recursion that peels the largest odd prime off the square part
of each index, down to a square part 2^s that the power sums at 2
handle.  The floating-complex local products that the `localfactors`
subcommand prints are `halfint.localfactors`; the floating f₁ and f₂
with √2·(f₁ + f₂) = h, which check this assembly, live in the tests
(`tests/oracles.py`).

h through q^prec reads g at the square-free cores t <= prec: g_t when
t ≡ 3 mod 4, and g_{4t} otherwise.  The second comes from g4, the series
m ↦ g_{4m} through the same precision (`theta.deep_coefficients`), so no
series is needed past prec.  `assemble_h` visits each square-free core
once, from a sieve: it runs the gate once per core, on the discriminant
of the sieved core (no second square-free test), and then walks the
indices core·y² in increasing y, factoring only y, each y <= √prec once.

`assemble_h` and `local_K` read one number per prime from a
`LiftProfile`: the eigenvalue b_p of the degree-p matrix on the
eigenline.  At a prime dividing the level
b_p is a sign, and the level involution there has sign w_p = -b_p,
which `LiftProfile.involution_sign` alone computes.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .errors import MissingEigenvalueError, PrecisionError
from .numth import (
    factorize,
    hilbert,
    is_squarefree,
    kronecker,
    prime_factors,
)
from .qexp import QExpansion
from .value import Value

__all__ = [
    "LiftProfile",
    "power_sums",
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


def _gate(profile: LiftProfile, disc: int) -> bool:
    """The local sign condition at the bad primes for the square-free
    index whose fundamental discriminant is `disc`: at each bad prime p
    prime to `disc`, (disc | p) must equal the involution sign w_p."""
    for p in profile.bad:
        if disc % p != 0 and kronecker(disc, p) != profile.involution_sign(p):
            return False
    return True


def assemble_h(g: QExpansion, g4: QExpansion, profile: LiftProfile, prec: int) -> QExpansion:
    """Exact companion form h = √2(f₁ + f₂), built from g's coefficients.

    `g4` holds g's coefficients at multiples of 4: g4_m = g_{4m}.  Write
    each index as n = core·y² with core square-free; indices whose core
    fails the gate vanish.  When y = 2^s (s = 0 included), h_n is
    g_core·(T_{s+1} − (2, core)₂·T_s) for core ≡ 3 mod 4 and T_s·g4_core
    otherwise, with the power sums T_s of b₂.  Otherwise let p be the
    largest odd prime of y and m = n/p²: h_n = b_p·h_m when p divides the
    level, and the degree-p² Hecke step h_m·(b_p − (−m|p)) − p·h_{n/p⁴}
    when it does not.  Each step multiplies coefficients of g,
    or of h at smaller indices, by integers, so h is integral because g
    is.  The result is a product of one factor per prime of y, each read
    from core and that prime's exponent alone, so the peeling order does
    not change it.  h_m and h_{n/p⁴} have the core of n and a smaller y,
    so walking each core's indices in increasing y meets them first.
    """
    for series in (g, g4):
        if series.prec < prec:
            raise PrecisionError(
                f"need theta coefficients through {prec}, have {series.prec}"
            )
    b2 = profile.eigenvalue(2)
    ts = power_sums(b2, prec.bit_length() // 2 + 2)
    root = math.isqrt(prec)
    # largest[y]: the largest prime of y, and 2 when y is a power of 2
    largest = [2] + [max(factorize(y), default=2) for y in range(1, root + 1)]
    squarefree = bytearray([1]) * (prec + 1)
    for d in range(2, root + 1):
        squarefree[d * d :: d * d] = bytes(prec // (d * d))
    coeffs: dict[int, int] = {}
    for core in range(1, prec + 1):
        if not squarefree[core]:
            continue
        at_core = core % 4 == 3  # h reads g at the core, else g4 there
        if not _gate(profile, -core if at_core else -4 * core):
            continue
        base = g[core] if at_core else g4[core]  # T_0 = 2: h_core = 2·g4_core
        eps = hilbert(2, core, 2) if at_core else 0
        for y in range(1, math.isqrt(prec // core) + 1):
            n = core * y * y
            p = largest[y]
            if p == 2:
                s = y.bit_length() - 1
                value = base * (ts[s + 1] - eps * ts[s]) if at_core else ts[s] * base
            else:
                m = n // (p * p)
                if p in profile.bad:
                    value = profile.eigenvalue(p) * coeffs.get(m, 0)
                else:
                    value = coeffs.get(m, 0) * (profile.eigenvalue(p) - kronecker(-m, p))
                    if n % p**4 == 0:
                        value -= p * coeffs.get(n // p**4, 0)
            if value:
                coeffs[n] = value
    return QExpansion(prec, coeffs)
