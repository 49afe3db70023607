"""Elementary exact number theory.

Valuations and p-parts, trial-division factorization, squarefree
decompositions, Kronecker symbols, and Hilbert symbols over Q_2 and Q_p
in closed form.

Everything here is exact integer arithmetic; no floats.
"""

from __future__ import annotations

from typing import Iterator

from .errors import FactorizationError

#: Inputs to factorize() must stay below this (trial division only).
TRIAL_BOUND = 1 << 32


def valuation(n: int, p: int) -> int:
    """Largest v with p^v | n.  Requires n != 0 and p >= 2."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_split(n: int, p: int) -> tuple[int, int]:
    """(u, h) with n = u * p**h and p prime to u.  n must be nonzero."""
    h = valuation(n, p)
    return n // p**h, h


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division.

    Raises FactorizationError if n exceeds TRIAL_BOUND; everything this
    package actually factors is tiny, the bound only guards against
    mistaken huge inputs looping for minutes.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    if n > TRIAL_BOUND:
        raise FactorizationError(f"{n} exceeds the trial-division bound {TRIAL_BOUND}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # 6k +/- 1 wheel
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors of n >= 1."""
    return sorted(factorize(n))


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (n >= 1)."""
    return all(e == 1 for e in factorize(n).values())


def squarefree_split(n: int) -> tuple[int, int]:
    """(core, y) with n = core * y**2 for n >= 1 and core squarefree."""
    core, y = 1, 1
    for p, e in factorize(n).items():
        if e % 2:
            core *= p
        y *= p ** (e // 2)
    return core, y


def squarefree_part(n: int) -> int:
    """Signed squarefree part of n != 0 (sign preserved)."""
    if n == 0:
        raise ValueError("squarefree part of zero is undefined")
    sign = -1 if n < 0 else 1
    return sign * squarefree_split(abs(n))[0]


def is_prime(n: int) -> bool:
    """Deterministic primality by `factorize`'s trial division.
    Raises ValueError if n exceeds TRIAL_BOUND, the bound `factorize`
    keeps, rather than dividing for minutes."""
    if n > TRIAL_BOUND:
        raise ValueError(f"{n} exceeds the trial-division bound {TRIAL_BOUND}")
    return n > 1 and factorize(n) == {n: 1}


def primes() -> Iterator[int]:
    """2, 3, 5, 7, ... (unbounded, trial-division backed)."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), fully extended to all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi loop on odd n > 0
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _eps(x: int) -> int:
    """(x - 1)/2 mod 2 for odd x."""
    return ((x - 1) // 2) % 2


def _omega(x: int) -> int:
    """(x^2 - 1)/8 mod 2 for odd x."""
    return ((x * x - 1) // 8) % 2


def hilbert2(a: int, b: int) -> int:
    """Hilbert symbol (a, b)_2 for nonzero integers, closed form.

    With a = 2^alpha * s and b = 2^beta * t (s, t odd), the exponent of
    -1 is eps(s)eps(t) + alpha*omega(t) + beta*omega(s).
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    s, alpha = padic_split(a, 2)
    t, beta = padic_split(b, 2)
    e = _eps(s) * _eps(t) + alpha * _omega(t) + beta * _omega(s)
    return -1 if e % 2 else 1


def hilbert_odd(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p at an odd prime, closed form.

    With a = p^alpha * s and b = p^beta * t (p prime to s, t):
    (-1)^(alpha*beta*eps(p)) * (s|p)^beta * (t|p)^alpha.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"hilbert_odd needs an odd prime, got {p}")
    s, alpha = padic_split(a, p)
    t, beta = padic_split(b, p)
    value = 1
    if alpha % 2 and beta % 2 and _eps(p):
        value = -value
    if beta % 2:
        value *= kronecker(s, p)
    if alpha % 2:
        value *= kronecker(t, p)
    return value


def hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p at a finite prime p."""
    return hilbert2(a, b) if p == 2 else hilbert_odd(a, b, p)


def hilbert_support(a: int, b: int) -> list[int]:
    """Finite primes where (a, b)_p could be -1: p | 2ab, deduplicated."""
    ps = {2}
    ps.update(prime_factors(abs(a)))
    ps.update(prime_factors(abs(b)))
    return sorted(ps)
