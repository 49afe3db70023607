"""The floating-complex local products of the `localfactors` subcommand.

The quotient of a half-integral coefficient by the corresponding theta
coefficient factors as a product of local terms, one per prime.  This
module evaluates those terms in complex floating point, to audit small
tables: `local_K` is the product of the local terms at an index, with
the first-kind term at 2 at either root of the alpha pair.  Nothing here
enters a published coefficient; the exact h comes from
`lift.assemble_h`.

Every basis job imports the package but never evaluates these terms, so
this module is left out of that import: `commands.cmd_localfactors`
imports it when it runs, and the package exports `local_K` on first
use.
"""

from __future__ import annotations

import math

from .lift import LiftProfile
from .numth import (
    factorize,
    hilbert,
    kronecker,
    valuation,
)

__all__ = [
    "alpha_pair",
    "c2_prime",
    "cp_s",
    "cp_0",
    "local_K",
]

_SQRT2 = math.sqrt(2.0)


def alpha_pair(profile: LiftProfile) -> tuple[complex, complex]:
    """Roots of x² − (b₂/√2)x + 1, first branch fixed.

    The first root has positive imaginary part when the pair is
    complex, and the larger real part otherwise.
    """
    b2 = profile.eigenvalue(2)
    half_trace = b2 / (2 * _SQRT2)
    disc = b2 * b2 / 2.0 - 4.0
    if disc < 0:
        im = math.sqrt(-disc) / 2
        return complex(half_trace, im), complex(half_trace, -im)
    rt = math.sqrt(disc) / 2
    return complex(half_trace + rt), complex(half_trace - rt)


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


_K_KINDS = ("K1", "K2")


def local_K(profile: LiftProfile, which: str, n: int) -> complex:
    """Product of the local terms over all primes, diagnostic path.

    `which` selects the branch at 2: "K1" and "K2" use the first-kind
    term at α₂ and α₂′.
    """
    if which not in _K_KINDS:
        raise ValueError(f"unknown local product {which!r}")
    if n < 1:
        raise ValueError("index must be positive")
    alpha, alpha_conj = alpha_pair(profile)
    if which == "K1":
        value = c2_prime(alpha, n)
    else:
        value = c2_prime(alpha_conj, n)
    for p in profile.bad:
        value *= cp_s(profile.eigenvalue(p) / math.sqrt(p), p, n)
    for p, e in factorize(n).items():
        if p == 2 or p in profile.bad or e < 2:
            continue
        value *= cp_0(profile.eigenvalue(p) / math.sqrt(p), p, n)
    return value
