"""Local-factor machinery and the exact assembly of the companion form h.

The quotient of a half-integral coefficient by the corresponding theta
coefficient factors as a product of local terms, one per prime.  This
module evaluates those local terms two ways: a floating-complex
diagnostic path used to audit small tables, and an exact integer path
that assembles the second basis vector h from g through a three-tier
recursion (square-free indices, square parts supported at 2 and the bad
primes, then degree-p² Hecke extensions at the remaining primes).

Both paths read one number per prime from a `LiftProfile`: the
eigenvalue b_p of the degree-p matrix on the eigenline.  At a prime
dividing the level b_p is a sign, and the level involution there has
sign w_p = -b_p, which `LiftProfile.involution_sign` alone computes.
"""

from __future__ import annotations

import math

from .errors import MissingEigenvalueError, PrecisionError
from .numth import (
    factorize,
    fundamental_discriminant,
    hilbert,
    is_squarefree,
    kronecker,
    prime_factors,
    squarefree_split,
    valuation,
)
from .qexp import QExpansion

__all__ = [
    "LiftProfile",
    "power_sums",
    "c2_prime",
    "c2_doubleprime",
    "cp_s",
    "cp_0",
    "local_K",
    "kronecker_gate",
    "global_factor",
    "f1_f2_diagnostic",
    "assemble_h",
]

_SQRT2 = math.sqrt(2.0)


class LiftProfile:
    """The eigenvalues of one eigenline, which is all the local factors read.

    `eigen` maps each prime to its degree-matrix eigenvalue b_p: 2, every
    prime dividing the level (where b_p is a sign), and whatever good odd
    primes the caller plans to use.  The level involution at p | N has
    sign w_p = -b_p (`involution_sign`), and these signs multiply to -1.
    `bad`, the primes dividing the level in increasing order, is derived
    once here.  The weight is fixed at 3/2 for the whole pipeline.
    Immutable and equal by (level, eigen).
    """

    __slots__ = ("level", "eigen", "bad")

    def __init__(self, level: int, eigen: dict[int, int]):
        if level < 3 or level % 2 == 0 or not is_squarefree(level):
            raise ValueError(f"level {level} is not odd and square-free")
        if 2 not in eigen:
            raise ValueError("no eigenvalue stored at 2")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "eigen", eigen)
        object.__setattr__(self, "bad", tuple(prime_factors(level)))
        for p in self.bad:
            if eigen.get(p) not in (1, -1):
                raise ValueError(f"eigenvalue at the level prime {p} is not a sign")
        if math.prod(self.involution_sign(p) for p in self.bad) != -1:
            raise ValueError("involution signs multiply to +1 (even root number)")

    def __setattr__(self, name, value):
        raise AttributeError(f"LiftProfile is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.eigen) == (other.level, other.eigen)

    def eigenvalue(self, p: int) -> int:
        if p not in self.eigen:
            raise MissingEigenvalueError(f"no eigenvalue stored for prime {p}")
        return self.eigen[p]

    def involution_sign(self, p: int) -> int:
        """w_p = -b_p, the sign of the level involution at p | N."""
        return -self.eigen[p]

    def alpha_pair(self) -> tuple[complex, complex]:
        """Roots of x² − (b₂/√2)x + 1, first branch fixed.

        The first root has positive imaginary part when the pair is
        complex, and the larger real part otherwise.
        """
        b2 = self.eigenvalue(2)
        half_trace = b2 / (2 * _SQRT2)
        disc = b2 * b2 / 2.0 - 4.0
        if disc < 0:
            im = math.sqrt(-disc) / 2
            return complex(half_trace, im), complex(half_trace, -im)
        rt = math.sqrt(disc) / 2
        return complex(half_trace + rt), complex(half_trace - rt)


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


def _even_square_split(n: int, p: int) -> tuple[int, int]:
    """n = u·p^{2h} with v_p(u) in {0, 1}."""
    h = valuation(n, p) // 2
    return n // p ** (2 * h), h


def c2_prime(delta: complex, n: int) -> complex:
    """Local term at 2, first kind."""
    u, h = _even_square_split(n, 2)
    if u % 2 == 1 and hilbert(u, -1, 2) == -1:
        return delta**h * (delta - hilbert(2, u, 2) / _SQRT2)
    return delta**h


def c2_doubleprime(delta: complex, n: int) -> complex:
    """Local term at 2, second kind (recursive)."""
    v2 = valuation(n, 2)
    if v2 == 0:
        return delta if hilbert(n, -1, 2) == -1 else 0j
    if v2 == 1:
        return 0j
    return delta * (c2_doubleprime(delta, n // 4) + c2_prime(delta, n // 4))


def cp_s(delta: complex, p: int, n: int) -> complex:
    """Local term at a bad odd prime.

    The branch comparison is decided by the integer sign of b_p (delta
    is b_p·p^{-1/2} with b_p = ±1), never by float equality.
    """
    u, h = _even_square_split(n, p)
    if u % p == 0:
        return delta**h
    bp_sign = 1 if delta.real > 0 else -1
    if kronecker(-u, p) == -bp_sign:
        return _SQRT2 * delta**h
    return 0j


def _b_sequence(delta: complex, h: int) -> list[complex]:
    vals = [1 + 0j, delta]
    while len(vals) <= h:
        vals.append(delta * vals[-1] - vals[-2])
    return vals


def cp_0(delta: complex, p: int, n: int) -> complex:
    """Local term at a good odd prime."""
    u, h = _even_square_split(n, p)
    if u % p != 0 and h == 0:
        return 1 + 0j
    b = _b_sequence(delta, h)
    if u % p != 0:
        return b[h] - b[h - 1] * kronecker(-u, p) / math.sqrt(p)
    return b[h]


_K_KINDS = ("K1", "K2", "K2'")


def local_K(profile: LiftProfile, which: str, n: int) -> complex:
    """Product of the local terms over all primes, diagnostic path.

    `which` selects the branch at 2: "K1" and "K2" use the first-kind
    term at α₂ and α₂′, "K2'" the second-kind term at α₂.
    """
    if which not in _K_KINDS:
        raise ValueError(f"unknown local product {which!r}")
    if n < 1:
        raise ValueError("index must be positive")
    alpha, alpha_conj = profile.alpha_pair()
    if which == "K1":
        value = c2_prime(alpha, n)
    elif which == "K2":
        value = c2_prime(alpha_conj, n)
    else:
        value = c2_doubleprime(alpha, n)
    for p in profile.bad:
        value *= cp_s(profile.eigenvalue(p) / math.sqrt(p), p, n)
    for p, e in factorize(n).items():
        if p == 2 or p in profile.bad or e < 2:
            continue
        value *= cp_0(profile.eigenvalue(p) / math.sqrt(p), p, n)
    return value


def kronecker_gate(profile: LiftProfile, t: int) -> bool:
    """Local sign condition at the bad primes for a square-free index."""
    disc = fundamental_discriminant(t)
    for p in profile.bad:
        if disc % p != 0 and kronecker(disc, p) != profile.involution_sign(p):
            return False
    return True


def global_factor(profile: LiftProfile, g: QExpansion, t: int) -> float:
    """A-value at a square-free index passing the gate, normalized r = 1.

    Reads the theta-side coefficient at |Δ_{−t}| and multiplies by the
    discriminant and dyadic normalizations.
    """
    if not kronecker_gate(profile, t):
        raise ValueError(f"local sign condition fails at {t}")
    disc = fundamental_discriminant(t)
    uncovered = sum(1 for p in profile.bad if disc % p != 0)
    return (
        2.0 ** (-uncovered / 2)
        * abs(disc) ** (-0.25)
        * float(g[abs(disc)])
    )


def f1_f2_diagnostic(
    g: QExpansion, profile: LiftProfile, prec: int
) -> tuple[dict[int, complex], dict[int, complex]]:
    """Floating coefficients of the two-element basis, normalized r = 1.

    Every index whose square-free part fails the gate gets 0; the rest
    combine the global factor with the local products.
    """
    if g.prec < 4 * prec:
        raise PrecisionError(
            f"need theta coefficients through {4 * prec}, have {g.prec}"
        )
    f1: dict[int, complex] = {}
    f2: dict[int, complex] = {}
    for n in range(1, prec + 1):
        core, _ = squarefree_split(n)
        if not kronecker_gate(profile, core):
            f1[n] = f2[n] = 0j
            continue
        base = global_factor(profile, g, core) * n**0.25
        f1[n] = base * local_K(profile, "K1", n)
        f2[n] = base * local_K(profile, "K2", n)
    return f1, f2


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
