"""Independent reference implementations used only by the tests.

Everything here is deliberately built from different first principles
than the library (exhaustive searches, floating point, point counting,
rational rather than integer elimination), so agreement between the two
is evidence rather than tautology.  The exceptions are routines the
library replaced by faster code with the same output (`hnf_rows_ref`,
`lll_gram_ref`, `bareiss_ref`, `rational_eigenlines_ref`,
`eigenline_candidates_ref`, `unpruned_candidates`,
`filtered_candidates`): they pin the replacement to what it replaced.
The small helpers after them (`xgcd`, `hilbert_real`, `qadd`, `trd`,
`contains_lattice`, `unit_count`, `series_sum`, `equivalent_ideals`,
`_odd_subsets`) serve only the tests.  The floating-complex pair f₁, f₂
(`f1_f2_diagnostic`, with `global_factor`, `c2_doubleprime`,
`local_K_doubleprime`, `kronecker_gate` and `fundamental_discriminant`)
reaches h by Waldspurger's local factors without `lift.assemble_h`'s
recursion, so √2·(f₁ + f₂) = h checks the exact assembly.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt, lcm, prod, sqrt

import itertools

import numpy as np

from halfint.errors import IntegralityError, PrecisionError
from halfint.kernels import combine
from halfint.lattice import Lattice4
from halfint.lift import power_sums
from halfint.localfactors import alpha_pair, c2_prime, cp_0, cp_s, local_K
from halfint.numth import (
    divisors,
    factorize,
    hilbert,
    is_squarefree,
    kronecker,
    squarefree_split,
    valuation,
)
from halfint.quat import QuaternionAlgebra, _ramified, conj


def squarefree_part_ref(n: int) -> int:
    """Signed squarefree part, by bare trial division."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


# ---------------------------------------------------------------------------
# Conic solvability oracles.
#
# z^2 = a x^2 + b y^2 has a nontrivial p-adic solution iff it has a
# *primitive* one (not all coordinates divisible by p), and for
# squarefree a, b a primitive solution exists iff one exists modulo 2^6
# (p = 2) or p^2 (odd p).  The reduction to squarefree parts happens
# first, so these moduli are always enough.
# ---------------------------------------------------------------------------

_R64 = np.arange(64, dtype=np.int64)
_SQ64 = np.zeros(64, dtype=bool)
_SQ64[np.unique(_R64 * _R64 % 64)] = True
_ODDSQ64 = np.zeros(64, dtype=bool)
_ODDSQ64[np.unique(_R64[1::2] ** 2 % 64)] = True
_X64 = _R64[:, None] * np.ones(64, dtype=np.int64)[None, :]
_Y64 = _X64.T
_EITHER_ODD64 = (_X64 % 2 == 1) | (_Y64 % 2 == 1)


@functools.lru_cache(maxsize=None)
def conic_solvable_2adic(a: int, b: int) -> bool:
    """True iff z^2 = a x^2 + b y^2 has a nonzero solution over Z_2."""
    a = squarefree_part_ref(a)
    b = squarefree_part_ref(b)
    vals = (a * _X64 * _X64 + b * _Y64 * _Y64) % 64
    # x or y odd: any z works; x and y both even: z must be odd.
    if (_SQ64[vals] & _EITHER_ODD64).any():
        return True
    return bool((_ODDSQ64[vals] & ~_EITHER_ODD64).any())


@functools.lru_cache(maxsize=None)
def _padic_tables(p: int):
    m = p * p
    r = np.arange(m, dtype=np.int64)
    sq = np.zeros(m, dtype=bool)
    sq[np.unique(r * r % m)] = True
    unit_sq = np.zeros(m, dtype=bool)
    units = r[r % p != 0]
    unit_sq[np.unique(units * units % m)] = True
    x = r[:, None] * np.ones(m, dtype=np.int64)[None, :]
    y = x.T
    either_unit = (x % p != 0) | (y % p != 0)
    return m, x, y, sq, unit_sq, either_unit


@functools.lru_cache(maxsize=None)
def conic_solvable_padic(a: int, b: int, p: int) -> bool:
    """True iff z^2 = a x^2 + b y^2 has a nonzero solution over Z_p, odd p."""
    a = squarefree_part_ref(a)
    b = squarefree_part_ref(b)
    m, x, y, sq, unit_sq, either_unit = _padic_tables(p)
    vals = (a * x * x + b * y * y) % m
    if (sq[vals] & either_unit).any():
        return True
    return bool((unit_sq[vals] & ~either_unit).any())


def hilbert_ref(a: int, b: int, p: int) -> int:
    """Hilbert symbol by conic search (finite p)."""
    if p == 2:
        return 1 if conic_solvable_2adic(a, b) else -1
    return 1 if conic_solvable_padic(a, b, p) else -1


# ---------------------------------------------------------------------------
# Elliptic-curve coefficient oracle: a_p by naive point counting, so the
# eigenvalue tables in the Brandt tests are recomputed, not transcribed.
# Curves are given by (a1, a2, a3, a4, a6).
# ---------------------------------------------------------------------------

CURVES = {
    11: (0, -1, 1, -10, -20),
    15: (1, 1, 1, -10, -10),
    21: (1, 0, 0, -4, -1),
    33: (1, 1, 0, -11, 0),
    35: (0, 1, 1, 9, 1),
    37: (0, 1, 1, -23, -50),  # the rank-0 form at level 37
}


def _legendre_ref(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def curve_ap(coeffs: tuple[int, int, int, int, int], p: int) -> int:
    """a_p = p + 1 - #E(F_p) for a prime p of good reduction."""
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        count = 1  # point at infinity
        for x in range(2):
            for y in range(2):
                lhs = (y * y + a1 * x * y + a3 * y) % 2
                rhs = (x**3 + a2 * x * x + a4 * x + a6) % 2
                if lhs == rhs:
                    count += 1
        return 2 + 1 - count
    total = 0
    for x in range(p):
        f = (x**3 + a2 * x * x + a4 * x + a6) % p
        disc = ((a1 * x + a3) ** 2 + 4 * f) % p
        total += _legendre_ref(disc, p)
    return -total


def newform_ap(level: int, p: int) -> int:
    """a_p of the tracked rational newform at `level` (good p only)."""
    coeffs = CURVES[level]
    if level % p == 0:
        raise ValueError(f"{p} divides {level}: not a good prime")
    return curve_ap(coeffs, p)


# ---------------------------------------------------------------------------
# Floating-point recurrences for the local-factor machinery.
# ---------------------------------------------------------------------------


def power_sum_ref(b2: int, s: int) -> float:
    """2^(s/2) (alpha^s + alpha'^s) for the quadratic pair attached to b2,
    evaluated in floating point straight from the roots."""
    import cmath

    disc = cmath.sqrt(complex(b2 * b2 - 8))
    alpha = (b2 + disc) / (2 * 2**0.5)
    beta = (b2 - disc) / (2 * 2**0.5)
    val = 2 ** (s / 2) * (alpha**s + beta**s)
    return float(val.real)


def chebyshev_like_ref(delta: float, h: int) -> float:
    """b_h evaluated from the binomial closed form, independent of any
    recurrence: 2^-h * sum_i C(h+1, 2i+1) delta^(h-2i) (delta^2-4)^i."""
    from math import comb

    total = 0.0
    for i in range(h // 2 + 1):
        total += comb(h + 1, 2 * i + 1) * delta ** (h - 2 * i) * (delta * delta - 4) ** i
    return total / 2**h


# ---------------------------------------------------------------------------
# Short-vector enumeration by an LDL^t decomposition over Fractions: the
# rational recursion the library's integer enumerator replaced.  It
# yields the same vectors in the same order (last coordinate slowest).
# ---------------------------------------------------------------------------


def _ldl_ref(gram):
    """gram = U^t D U with U unit upper triangular, D positive diagonal."""
    n = len(gram)
    d = [Fraction(0)] * n
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        val = Fraction(gram[i][i]) - sum(d[m] * u[m][i] ** 2 for m in range(i))
        if val <= 0:
            raise ValueError("form is not positive definite")
        d[i] = val
        for j in range(i + 1, n):
            val = Fraction(gram[i][j]) - sum(
                d[m] * u[m][i] * u[m][j] for m in range(i)
            )
            u[i][j] = val / d[i]
    return d, u


def short_vectors_ref(gram, bound):
    """(c, Q(c)) for every integer c with Q(c) <= bound."""
    bound = Fraction(bound)
    if bound < 0:
        return
    n = len(gram)
    d, u = _ldl_ref(gram)
    coords = [0] * n

    def level(i, rem):
        if i < 0:
            yield tuple(coords), bound - rem
            return
        c = sum((u[i][j] * coords[j] for j in range(i + 1, n)), Fraction(0))
        lim = rem / d[i]
        cn, cd = c.numerator, c.denominator
        ymax = isqrt((cd * cd * lim.numerator) // lim.denominator)
        for x in range(-((cn + ymax) // cd), (ymax - cn) // cd + 1):
            t = d[i] * (x + c) ** 2
            if t > rem:
                continue
            coords[i] = x
            yield from level(i - 1, rem - t)
        coords[i] = 0

    yield from level(n - 1, bound)


def count_by_value_ref(gram, bound):
    """Histogram of Q-values, keys in first-seen order."""
    out = {}
    for _, val in short_vectors_ref(gram, bound):
        out[val] = out.get(val, 0) + 1
    return out


def is_lll_reduced_ref(gram):
    """Whether the basis with this Gram matrix is LLL-reduced for delta =
    3/4, by exact Gram-Schmidt over Fractions: |mu_kj| <= 1/2 for j < k,
    and |b*_k|^2 >= (3/4 - mu_k,k-1^2) |b*_k-1|^2."""
    d, u = _ldl_ref(gram)  # d[k] = |b*_k|^2 and u[j][k] = mu_kj
    n = len(gram)
    size_reduced = all(abs(u[j][k]) <= Fraction(1, 2) for k in range(n) for j in range(k))
    lovasz = all(
        d[k] >= (Fraction(3, 4) - u[k - 1][k] ** 2) * d[k - 1] for k in range(1, n)
    )
    return size_reduced and lovasz


def lll_gram_ref(gram):
    """Integral LLL on a Gram matrix (Cohen, GTM 138, Alg. 2.6.7) with the
    size reduction as a nested function, the routine the library's flat
    loop replaced; the two must return the same Gram matrix."""
    n = len(gram)
    G = [list(row) for row in gram]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        # b_k -= q b_l with q the integer nearest to mu_kl
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        for j in range(n):
            G[k][j] -= q * G[l][j]
        for j in range(n):
            G[j][k] -= q * G[j][l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt for the new vector b_k
            kmax = k
            for j in range(k + 1):
                u = G[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("form is not positive definite")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        reduce(k, k - 1)
        mu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * mu * mu:
            # the Lovasz condition fails: exchange b_k and b_{k-1}
            G[k], G[k - 1] = G[k - 1], G[k]
            for row in G:
                row[k], row[k - 1] = row[k - 1], row[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
                lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return G


def int_gram_ref(lat):
    """den^2 times the Gram matrix of a lattice, by the comprehension the
    flat `Lattice4.int_gram` replaced: rows diag(1, a, b, ab) rows^t."""
    a, b = lat.alg.a, lat.alg.b
    weighted = [(x0, a * x1, b * x2, a * b * x3) for x0, x1, x2, x3 in lat.rows]
    return [[sum(x * y for x, y in zip(w, row)) for row in lat.rows] for w in weighted]


def bareiss_ref(A):
    """Fraction-free elimination of a symmetric integer matrix, the second
    elimination the enumerator ran on LLL's output before it read LLL's
    own minors and coefficients.

    Returns the leading principal minors M_0 = 1, M_1, ..., M_n and the
    eliminated matrix: right of the diagonal, its row i is M_{i+1} times
    row i of the unit upper triangular U in A = U^t diag(M_{i+1}/M_i) U.
    """
    n = len(A)
    A = [list(row) for row in A]
    minors = [1]
    for k in range(n):
        Ak, prev = A[k], minors[k]
        piv = Ak[k]
        if piv <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, n):
            Ai = A[i]
            aik = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (piv * Ai[j] - aik * Ak[j]) // prev
        minors.append(piv)
    return minors, A


# ---------------------------------------------------------------------------
# Small helpers that only the tests use.
# ---------------------------------------------------------------------------


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hilbert_real(a: int, b: int) -> int:
    """Hilbert symbol over the reals: -1 iff both arguments negative."""
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    return -1 if (a < 0 and b < 0) else 1


def qadd(x, y):
    """The sum of two elements."""
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def contains_lattice(lat, other):
    """Whether the lattice `other` lies in `lat`."""
    return all(lat.coordinates(row, other.den) is not None for row in other.rows)


def trd(x):
    """Reduced trace x + conj(x)."""
    return 2 * x[0]


def unit_count(order):
    """Number of elements of reduced norm 1 of an order (both signs)."""
    return order.lattice.norm_counts(1).get(1, 0)


def series_sum(weighted):
    """The nonzero coefficients of the sum of w·f over the pairs (w, f) of
    an integer and a QExpansion, as a dict n -> coefficient."""
    out = {}
    for w, f in weighted:
        for n, c in f.coeffs.items():
            out[n] = out.get(n, 0) + w * c
    return {n: c for n, c in out.items() if c}


def equivalent_ideals(I, J):
    """Left ideals are isomorphic iff conj(I) J is principal: its norm
    form represents its content."""
    return I.conjugate().product(J).norm_counts(1).get(1, 0) > 0


# ---------------------------------------------------------------------------
# Rational views.  The library keeps elements and lattices as integer rows
# over a denominator; the tests state rational elements and lattices with
# these and compare through them.
# ---------------------------------------------------------------------------


def qelt(x0=0, x1=0, x2=0, x3=0):
    """Four rationals as an element tuple of Fractions."""
    return (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))


def qscale(c, x):
    """The element c x for a rational c."""
    c = Fraction(c)
    return (c * x[0], c * x[1], c * x[2], c * x[3])


def from_vectors(alg, vectors):
    """The lattice spanned by rational quaternions."""
    vectors = [[Fraction(x) for x in v] for v in vectors]
    den = lcm(*(x.denominator for v in vectors for x in v))
    return Lattice4.from_int_rows(
        alg, den, [[x.numerator * (den // x.denominator) for x in v] for v in vectors]
    )


def basis(lat):
    """The basis of a lattice as rational quaternions."""
    return [tuple(Fraction(x, lat.den) for x in row) for row in lat.rows]


# ---------------------------------------------------------------------------
# Quaternion lattice algebra over Fractions: Gauss-Jordan inverses and
# dual lattices, the route the library's integer Hermite-form operations
# replaced.  Lattices enter and leave through the views above.
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def mat_inv(A):
    """Inverse of a square Fraction matrix by Gauss-Jordan."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def mat_det(A):
    """Determinant of a square Fraction matrix by elimination."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] * inv
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return det


def transpose(A):
    return [list(col) for col in zip(*A)]


def det_ref(lat):
    """|det| of the rational basis matrix."""
    return abs(mat_det(basis(lat)))


def index_ref(L, sub):
    """[L : sub] as a positive rational, from the basis determinants."""
    return det_ref(sub) / det_ref(L)


def intersect_ref(L, M):
    """L cap M as the dual lattice of the sum of the duals."""
    dual = from_vectors(L.alg, transpose(mat_inv(basis(L))) + transpose(mat_inv(basis(M))))
    return from_vectors(L.alg, transpose(mat_inv(basis(dual))))


def right_order_intersection_ref(lat):
    """{x : L x in L} for any lattice L, as the intersection of the v^-1 L
    over the basis vectors v = r / den: with v^-1 = den conj(r) / nrd(r),
    v^-1 (w / den) = conj(r) w / nrd(r).  The library's one-product
    formula holds only for invertible L."""
    alg = lat.alg
    parts = (
        Lattice4.from_int_rows(alg, alg.nrd(r), [alg.mul(conj(r), w) for w in lat.rows])
        for r in lat.rows
    )
    return functools.reduce(intersect_ref, parts)


def order_ref(lat, side):
    """Lattice of x with v*x in lat (side='right') or x*v in lat ('left')
    for every v in lat: the dual of the lattice of conditions."""
    alg = lat.alg
    std = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    Binv = mat_inv(basis(lat))
    cond_vectors = []
    for v in basis(lat):
        if side == "right":
            M = [list(alg.mul(v, e)) for e in std]
        else:
            M = [list(alg.mul(e, v)) for e in std]
        cond_vectors.extend(transpose(mat_mul(M, Binv)))
    cond_lat = from_vectors(alg, cond_vectors)
    return from_vectors(alg, transpose(mat_inv(basis(cond_lat))))


def reduced_discriminant_ref(lat):
    """sqrt |det trd(b_i b_j)|, with an exact square root."""
    bas = basis(lat)
    dd = abs(mat_det([[2 * lat.alg.mul(x, y)[0] for y in bas] for x in bas]))
    rn, rd = isqrt(dd.numerator), isqrt(dd.denominator)
    assert rn * rn == dd.numerator and rd * rd == dd.denominator
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# Left kernels by Gauss-Jordan over Fractions, the reference for the
# library's eigenspaces by integer forward elimination.
# ---------------------------------------------------------------------------


def rref(rows):
    """Reduced row echelon form of a Fraction matrix: its nonzero rows and
    the pivot columns."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c] != 0:
                f = mat[k][c]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat if any(row)], pivots


def left_kernel_ref(M):
    """Basis of {v : v M = 0} for a d x H matrix, one vector per free
    column of the transpose's reduced echelon form."""
    d = len(M)
    red, pivots = rref(transpose(M))
    basis = []
    for f in (c for c in range(d) if c not in pivots):
        v = [Fraction(0)] * d
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Ideal classes by testing every new neighbour against every class found,
# the scan the library's key buckets replaced.
# ---------------------------------------------------------------------------


def eichler_mass_ref(D, N):
    """The mass phi(D) psi(N/D) / 12 of the class set for an order of
    level N and ramification D, from the factorizations."""
    mass = Fraction(1, 12)
    for p in factorize(D):
        mass *= p - 1
    for p in factorize(N // D):
        mass *= p + 1
    return mass


def ideal_classes_ref(order):
    """The left ideal classes in breadth-first discovery order, each
    neighbour tested for equivalence against all classes so far."""
    from halfint.brandt import _neighbors
    from halfint.lattice import Order, right_order_lattice

    target = eichler_mass_ref(order.alg.discriminant, order.reduced_discriminant)
    classes, rights = [order.lattice], [order]
    mass = Fraction(2, unit_count(order))
    frontier = [0]
    while mass < target and frontier:
        idx = frontier.pop(0)
        for J in _neighbors(classes[idx], rights[idx]):
            if any(equivalent_ideals(J, C) for C in classes):
                continue
            classes.append(J)
            rights.append(Order(right_order_lattice(J)))
            mass += Fraction(2, unit_count(rights[-1]))
            frontier.append(len(classes) - 1)
            if mass >= target:
                break
    assert mass == target
    return classes


# ---------------------------------------------------------------------------
# Row Hermite form pivoting on the first nonzero entry of each column and
# combining every other row with it by the extended Euclidean algorithm,
# the routine the library's smallest-pivot version replaced.
# ---------------------------------------------------------------------------


def hnf_rows_ref(rows):
    """Nonzero rows of the row Hermite normal form (positive pivots,
    entries above each pivot reduced into [0, pivot))."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        idx = [r for r in range(pivot_row, len(mat)) if mat[r][col] != 0]
        if not idx:
            continue
        if idx[0] != pivot_row:
            # the displaced row had a zero in this column, so idx[1:] are
            # still the positions left to clear
            mat[pivot_row], mat[idx[0]] = mat[idx[0]], mat[pivot_row]
        for r in idx[1:]:
            a, b = mat[pivot_row][col], mat[r][col]
            if b == 0:
                continue
            g, s, t = xgcd(a, b)
            row_p, row_r = mat[pivot_row], mat[r]
            new_p = [s * x + t * y for x, y in zip(row_p, row_r)]
            new_r = [(a // g) * y - (b // g) * x for x, y in zip(row_p, row_r)]
            mat[pivot_row], mat[r] = new_p, new_r
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-x for x in mat[pivot_row]]
        piv = mat[pivot_row][col]
        for r in range(pivot_row):
            q = mat[r][col] // piv
            if q:
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [r for r in mat[:pivot_row] if any(r)]


# ---------------------------------------------------------------------------
# Brandt neighbours by scanning every residue mod p, the scan the library
# stops once it has found the p + 1 neighbours.
# ---------------------------------------------------------------------------


def neighbors_ref(ideal, right, p=2):
    """The distinct index-p^2 subideals I x + p I, in residue scan order."""
    alg = ideal.alg
    rden, rrows = right.lattice.den, right.lattice.rows
    out = []
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = combine(rrows, coeffs)
        if alg.nrd(x) % (p * rden * rden):
            continue
        J = Lattice4.from_int_rows(
            alg,
            ideal.den * rden,
            [alg.mul(row, x) for row in ideal.rows]
            + [[p * rden * t for t in row] for row in ideal.rows],
        )
        if index_ref(ideal, J) == p * p and J not in out:
            out.append(J)
    return out


# ---------------------------------------------------------------------------
# Canonical algebra presentations by trying every a * b in turn, the scan
# the library's search over multiples of the odd target primes replaced.
# One pass serves many targets: each gets the first (a, b) of the scan.
# ---------------------------------------------------------------------------


def algebra_ramified_at_ref(targets):
    """{target: the first (-a, -b) in the order a * b ascending, then a
    ascending, with finite ramification exactly `target`}, for sorted
    tuples of primes."""
    left = set(targets)
    out = {}
    ramified = {}  # (-a, -b) and (-b, -a) ramify at the same primes
    for prod in itertools.count(1):
        for a in divisors(prod):
            b = prod // a
            key = (min(a, b), max(a, b))
            if key not in ramified:
                ramified[key] = _ramified.__wrapped__(a, b)
            target = ramified[key]
            if target in left:
                out[target] = QuaternionAlgebra(a, b)
                left.discard(target)
                if not left:
                    return out


# ---------------------------------------------------------------------------
# The two-element basis f1, f2 in complex floating point, from the global
# factor read off g and the local products of `halfint.localfactors`:
# h = √2·(f1 + f2), reached without the exact recursion.
# ---------------------------------------------------------------------------


def fundamental_discriminant(t: int) -> int:
    """Discriminant of the quadratic order attached to sqrt(-t).

    t must be a squarefree positive integer; the result is -t when
    -t = 1 mod 4 and -4t otherwise.
    """
    if t < 1 or not is_squarefree(t):
        raise ValueError(f"need squarefree t >= 1, got {t}")
    return -t if (-t) % 4 == 1 else -4 * t


def kronecker_gate(profile, t: int) -> bool:
    """Local sign condition at the bad primes for a square-free index t:
    (D | p) = w_p at each bad p prime to D, the discriminant of sqrt(-t)."""
    disc = fundamental_discriminant(t)
    return all(
        disc % p == 0 or kronecker(disc, p) == profile.involution_sign(p)
        for p in profile.bad
    )


def c2_doubleprime(delta: complex, n: int) -> complex:
    """Local term at 2, second kind (recursive)."""
    v2 = valuation(n, 2)
    if v2 == 0:
        return delta if hilbert(n, -1, 2) == -1 else 0j
    if v2 == 1:
        return 0j
    return delta * (c2_doubleprime(delta, n // 4) + c2_prime(delta, n // 4))


def local_K_doubleprime(profile, n: int) -> complex:
    """The "K2'" product: `local_K`'s terms at the odd primes, with the
    second-kind term at 2 at α₂ in place of the first-kind one."""
    if n < 1:
        raise ValueError("index must be positive")
    value = c2_doubleprime(alpha_pair(profile)[0], n)
    for p in profile.bad:
        value *= cp_s(profile.eigenvalue(p) / sqrt(p), p, n)
    for p, e in factorize(n).items():
        if p != 2 and p not in profile.bad and e >= 2:
            value *= cp_0(profile.eigenvalue(p) / sqrt(p), p, n)
    return value


def global_factor(profile, g, g4, t: int) -> float:
    """A-value at a square-free index passing the gate, normalized r = 1.

    Reads the theta-side coefficient at |Δ_{−t}|: g_t when Δ_{−t} = −t,
    and g4_t = g_{4t} when Δ_{−t} = −4t.  It multiplies that by the
    discriminant and dyadic normalizations.
    """
    if not kronecker_gate(profile, t):
        raise ValueError(f"local sign condition fails at {t}")
    disc = fundamental_discriminant(t)
    uncovered = sum(1 for p in profile.bad if disc % p != 0)
    coefficient = g[t] if disc == -t else g4[t]
    return 2.0 ** (-uncovered / 2) * abs(disc) ** (-0.25) * float(coefficient)


def f1_f2_diagnostic(g, g4, profile, prec: int):
    """Floating coefficients {n: f1_n}, {n: f2_n} of the two-element
    basis for 1 <= n <= prec, normalized r = 1.

    `g4` holds g's coefficients at multiples of 4, as for `assemble_h`.
    Every index whose square-free part fails the gate gets 0; the rest
    combine the global factor with the local products.
    """
    for series in (g, g4):
        if series.prec < prec:
            raise PrecisionError(
                f"need theta coefficients through {prec}, have {series.prec}"
            )
    f1: dict[int, complex] = {}
    f2: dict[int, complex] = {}
    for n in range(1, prec + 1):
        core, _ = squarefree_split(n)
        if not kronecker_gate(profile, core):
            f1[n] = f2[n] = 0j
            continue
        base = global_factor(profile, g, g4, core) * n**0.25
        f1[n] = base * local_K(profile, "K1", n)
        f2[n] = base * local_K(profile, "K2", n)
    return f1, f2


# ---------------------------------------------------------------------------
# The companion form h over Fractions, the route the library's integer
# assembly replaced: the power-sum tier over a core not 3 mod 4 halves
# the value stored at the core, and a closing scan rejects any
# coefficient that did not come out integral.
# ---------------------------------------------------------------------------


def assemble_h_ref(g, profile, prec):
    """{n: h_n} as Fractions for 1 <= n <= prec, nonzero entries only;
    raises IntegralityError on a non-integral coefficient."""
    b2 = profile.eigenvalue(2)
    ts = power_sums(b2, prec.bit_length() // 2 + 2)
    coeffs = {}

    def stored(m):
        return coeffs.get(m, Fraction(0))

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
                    value = g[core] * (ts[s + 1] - hilbert(2, core, 2) * ts[s]) * bad_scale
                else:
                    value = Fraction(ts[s], 2) * stored(core) * bad_scale
            else:
                p = max(good)
                m = n // (p * p)
                value = stored(m) * (profile.eigenvalue(p) - kronecker(-m, p))
                if n % p**4 == 0:
                    value -= p * stored(n // p**4)
        if value:
            coeffs[n] = Fraction(value)

    for n, v in coeffs.items():
        if v.denominator != 1:
            raise IntegralityError(f"non-integral coefficient {v} at index {n}")
    return coeffs


# ---------------------------------------------------------------------------
# The eigenline search with one class set per odd ramification subset, the
# search that one search class set replaced at every level, that search
# before it pruned by sign, and the filter by a newform file's entries
# that pins inside the refinement replaced.
# ---------------------------------------------------------------------------


def _odd_subsets(ps: list[int]) -> list[tuple[int, ...]]:
    """Odd-cardinality subsets, ordered by product then lexicographically."""
    subsets = [c for k in range(1, len(ps) + 1, 2) for c in itertools.combinations(ps, k)]
    return sorted(subsets, key=lambda chosen: (prod(chosen), chosen))


def eigenline_candidates_ref(level):
    """The admissible eigenlines of every odd ramification subset, in
    `_odd_subsets` order, each refined with its signs on the class set of
    the level-N Eichler order in its own algebra."""
    from halfint.brandt import cuspidal_eigenlines, ideal_classes
    from halfint.lattice import eichler_order
    from halfint.numth import prime_factors
    from halfint.quat import algebra_ramified_at

    bad = prime_factors(level)
    out = []
    for ramified in _odd_subsets(bad):
        order = eichler_order(algebra_ramified_at(list(ramified)), level)
        signs = {p: (1,) if p in ramified else (-1,) for p in bad}
        out += cuspidal_eigenlines(ideal_classes(order), pins=signs)
    return out


def unpruned_candidates(level):
    """The search without sign pruning: every subset fully refined, then
    the lines with the wrong bad-prime signs dropped."""
    from halfint.brandt import cuspidal_eigenlines, ideal_classes
    from halfint.lattice import eichler_order
    from halfint.numth import prime_factors
    from halfint.quat import algebra_ramified_at

    bad = prime_factors(level)
    out = []
    for ramified in _odd_subsets(bad):
        order = eichler_order(algebra_ramified_at(list(ramified)), level)
        for line in cuspidal_eigenlines(ideal_classes(order)):
            signs = {p: line.eigenvalue(p) for p in bad}
            if not all(s in (1, -1) for s in signs.values()):
                continue
            if all((signs[p] == 1) == (p in ramified) for p in bad):
                out.append((ramified, line))
    return out


def filtered_candidates(level, pins):
    """The search with no pins, then the lines with the pinned
    eigenvalues: a newform file's entries applied after the search."""
    from halfint.cli import eigenline_candidates

    return [
        line
        for line in eigenline_candidates(level)
        if all(line.eigenvalue(p) == v for p, v in pins.items())
    ]


# ---------------------------------------------------------------------------
# The refinement before it started from the cusp hyperplane: the whole
# space, every eigenvalue up to the row sum at every prime, and the
# Eisenstein line dropped only after the lines were found.
# ---------------------------------------------------------------------------


def rational_eigenlines_ref(class_set, pins=None):
    """Every rational simultaneous eigenline of the class set, cuspidal or
    not, refined from the identity block with |lam| <= `row_sum(p)` at
    every prime, and sorted by the eigenvalues at ORDER_PRIMES (stably,
    so its cuspidal lines are in the order `cuspidal_eigenlines_ref`
    gives them)."""
    from halfint.brandt import PRIME_BOUND, Eigenform, _by_small_eigenvalues
    from halfint.kernels import _eigenspace, _normalize_primitive, _product
    from halfint.numth import prime_factors, primes

    pins = pins or {}
    H = class_set.h
    pending = [[tuple(int(i == j) for j in range(H)) for i in range(H)]]
    finished = []
    bad = prime_factors(class_set.level)
    good = itertools.takewhile(lambda q: q <= PRIME_BOUND, primes())
    for p in [*bad, *(q for q in good if q not in bad)]:
        if not pending:
            break
        B = class_set.brandt(p)
        bound = class_set.row_sum(p)
        roots = pins.get(p, range(-bound, bound + 1))
        next_pending = []
        for block in pending:
            T = _product(block, B)
            for lam in roots:
                child = _eigenspace(T, block, lam)
                if child:
                    (finished if len(child) == 1 else next_pending).append(child)
        pending = next_pending
    lines = [Eigenform(class_set, _normalize_primitive(block[0])) for block in finished]
    lines = [f for f in lines if all(f.eigenvalue(p) in vs for p, vs in pins.items())]
    return _by_small_eigenvalues(lines)


def cuspidal_eigenlines_ref(class_set, pins=None):
    """The lines of `rational_eigenlines_ref` whose entries sum to zero."""
    return [f for f in rational_eigenlines_ref(class_set, pins) if sum(f.vector) == 0]
