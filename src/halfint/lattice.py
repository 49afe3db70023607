"""Full lattices in a definite quaternion algebra, and orders.

A lattice is stored as a canonical pair (den, rows): `rows` is the
unique upper-triangular Hermite basis with positive pivots and reduced
entries above each pivot, and den is the common denominator after
removing content.  Canonical form makes equality, hashing and caching
trivial.

The module also carries the exact positive-definite enumeration used
everywhere counts of lattice points by norm are needed (theta series,
Brandt counts, unit counts): a Fincke-Pohst enumerator that runs in
integers.  The Gram matrix is scaled to an integer matrix, its leading
minors and eliminated rows come from fraction-free (Bareiss)
elimination, and each coordinate's interval comes from isqrt of an
integer budget, so neither floating point nor Fraction arithmetic
enters the enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    IntegralityError,
    MaximalOrderNotFoundError,
)
from .numth import prime_factors, xgcd
from .quat import ONE, Quat, QuaternionAlgebra, conj, qelt, qscale, trd

# ---------------------------------------------------------------------------
# small exact linear algebra over Fraction
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


def hnf_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix.

    Returns the nonzero echelon rows: upper triangular in the pivot
    columns, positive pivots, entries above each pivot reduced into
    [0, pivot).  Unimodular row operations only.
    """
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
# exact enumeration of short vectors of a positive-definite form
# ---------------------------------------------------------------------------


def _bareiss(A):
    """Fraction-free elimination of a symmetric integer matrix.

    Returns the leading principal minors M_0 = 1, M_1, ..., M_n and the
    eliminated matrix: right of the diagonal, its row i is M_{i+1} times
    row i of the unit upper triangular U in A = U^t diag(M_{i+1}/M_i) U.
    """
    n = len(A)
    A = [list(row) for row in A]
    minors = [1]
    for k in range(n):
        piv = A[k][k]
        if piv <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (piv * A[i][j] - A[i][k] * A[k][j]) // minors[k]
        minors.append(piv)
    return minors, A


def _fincke_pohst(gram, bound):
    """Integer-exact Fincke-Pohst enumeration (Math. Comp. 44, 1985), one
    innermost line at a time.

    With A = den * gram over the integers (den the lcm of the entries'
    denominators) and M_k its leading minors,

        den * Q(c) = sum_i (M_{i+1} c_i + s_i)^2 / (M_i M_{i+1}),

    where s_i is the eliminated row i dotted with the coordinates after i.
    Each term and the remaining budget are integers scaled by
    S = lcm_i(M_i M_{i+1}), so an integer key k stands for the value
    k / (S * den).  Returns (S * den, m, w, lines): `lines` yields
    (outer, lo, hi, s, used), last coordinate slowest, for each choice
    `outer` of the coordinates 1..n-1 whose own terms fit the budget.
    The vectors (x, *outer) within the bound are those with
    lo <= x <= hi (possibly none), each with the key
    used + w * (m * x + s)^2.
    """
    n = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    den = lcm(*(x.denominator for row in gram for x in row))
    minors, rows = _bareiss([[int(x * den) for x in row] for row in gram])
    scale = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    weights = [scale // (minors[i] * minors[i + 1]) for i in range(n)]
    top = scale * (bound.numerator * den // bound.denominator)
    coords = [0] * n

    def level(i: int, rem: int):
        m, row = minors[i + 1], rows[i]
        s = sum(row[j] * coords[j] for j in range(i + 1, n))
        ymax = isqrt(rem // weights[i])
        lo, hi = -((ymax + s) // m), (ymax - s) // m
        if i == 0:
            yield tuple(coords[1:]), lo, hi, s, top - rem
            return
        w = weights[i]
        for x in range(lo, hi + 1):
            coords[i] = x
            y = m * x + s
            yield from level(i - 1, rem - w * y * y)
        coords[i] = 0

    return scale * den, minors[1], weights[0], level(n - 1, top)


def short_vectors(
    gram: Sequence[Sequence[Fraction]], bound
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All integer vectors c with Q(c) <= bound for the given Gram matrix.

    Yields (c, Q(c)) pairs, zero vector included, c and -c listed
    separately, in a fixed deterministic order (last coordinate varies
    slowest).  The enumeration runs in integers (see `_fincke_pohst`),
    with interval bounds from isqrt, so it is exact.
    """
    bound = Fraction(bound)
    if bound < 0:
        return
    scale, m, w, lines = _fincke_pohst(gram, bound)
    for outer, lo, hi, s, used in lines:
        for x in range(lo, hi + 1):
            y = m * x + s
            yield (x,) + outer, Fraction(used + w * y * y, scale)


def count_by_value(gram, bound) -> dict[Fraction, int]:
    """Histogram of Q-values up to `bound` over the integer lattice."""
    bound = Fraction(bound)
    if bound < 0:
        return {}
    scale, m, w, lines = _fincke_pohst(gram, bound)
    keys: dict[int, int] = {}
    for _, lo, hi, s, used in lines:
        for y in range(m * lo + s, m * hi + s + 1, m):
            k = used + w * y * y
            keys[k] = keys.get(k, 0) + 1
    return {Fraction(k, scale): count for k, count in keys.items()}


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def combine(basis: Sequence[Quat], coeffs: Sequence[int]) -> Quat:
    """The integer combination sum coeffs[r] * basis[r]."""
    v = qelt()
    for c, b in zip(coeffs, basis):
        if c:
            v = tuple(x + c * y for x, y in zip(v, b))
    return v


@dataclass(frozen=True)
class Lattice4:
    """Full rank-4 lattice in a definite quaternion algebra.

    rows/den is the canonical Hermite basis: basis vector r is
    (rows[r][0] + rows[r][1] i + rows[r][2] j + rows[r][3] k) / den.
    """

    alg: QuaternionAlgebra
    den: int
    rows: tuple[tuple[int, int, int, int], ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_frac_rows(cls, alg: QuaternionAlgebra, rows) -> "Lattice4":
        den = 1
        for row in rows:
            for x in row:
                den = lcm(den, Fraction(x).denominator)
        int_rows = [
            [int(Fraction(x) * den) for x in row] for row in rows
        ]
        hrows = hnf_rows(int_rows)
        if len(hrows) != 4:
            raise ValueError("lattice is not of full rank")
        content = den
        for row in hrows:
            for x in row:
                content = gcd(content, x)
        den //= content
        hrows = [[x // content for x in row] for row in hrows]
        return cls(alg, den, tuple(tuple(r) for r in hrows))

    @classmethod
    def from_vectors(cls, alg: QuaternionAlgebra, vectors: Iterable[Quat]) -> "Lattice4":
        return cls.from_frac_rows(alg, [list(v) for v in vectors])

    @classmethod
    def standard_order(cls, alg: QuaternionAlgebra) -> "Lattice4":
        eye = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        return cls(alg, 1, eye)

    # -- views -------------------------------------------------------------

    def frac_rows(self):
        return [[Fraction(x, self.den) for x in row] for row in self.rows]

    def basis(self) -> list[Quat]:
        return [tuple(Fraction(x, self.den) for x in row) for row in self.rows]

    def det(self) -> Fraction:
        prod = 1
        for i in range(4):
            prod *= self.rows[i][i]
        return Fraction(prod, self.den**4)

    def int_gram(self) -> list[list[int]]:
        """den^2 times the Gram matrix: rows diag(1, a, b, ab) rows^t."""
        a, b = self.alg.a, self.alg.b
        weighted = [(x0, a * x1, b * x2, a * b * x3) for x0, x1, x2, x3 in self.rows]
        return [
            [sum(x * y for x, y in zip(w, row)) for row in self.rows]
            for w in weighted
        ]

    def gram(self):
        """Matrix of the polarized norm form on the basis."""
        sq = self.den * self.den
        return [[Fraction(x, sq) for x in row] for row in self.int_gram()]

    # -- membership and comparison -----------------------------------------

    def contains(self, x: Quat) -> bool:
        target = [Fraction(t) * self.den for t in x]
        # rows are upper triangular with pivot i in column i, so peel off
        # coefficients left to right
        for col in range(4):
            c = target[col] / self.rows[col][col]
            if c.denominator != 1:
                return False
            if c:
                for t in range(col, 4):
                    target[t] -= c * self.rows[col][t]
        return all(t == 0 for t in target)

    def contains_lattice(self, other: "Lattice4") -> bool:
        return all(self.contains(v) for v in other.basis())

    def index_over(self, sub: "Lattice4") -> Fraction:
        """[self : sub] as a positive rational (integer when sub <= self)."""
        return abs(sub.det() / self.det())

    # -- lattice operations --------------------------------------------------

    def add(self, other: "Lattice4") -> "Lattice4":
        if self.alg != other.alg:
            raise ValueError("lattices live in different algebras")
        return Lattice4.from_frac_rows(self.alg, self.frac_rows() + other.frac_rows())

    def intersect(self, other: "Lattice4") -> "Lattice4":
        dual = Lattice4.from_frac_rows(
            self.alg,
            transpose(mat_inv(self.frac_rows()))
            + transpose(mat_inv(other.frac_rows())),
        )
        rows = transpose(mat_inv(dual.frac_rows()))
        return Lattice4.from_frac_rows(self.alg, rows)

    def product(self, other: "Lattice4") -> "Lattice4":
        """Lattice generated by all pairwise products."""
        if self.alg != other.alg:
            raise ValueError("lattices live in different algebras")
        mul = self.alg.mul
        vecs = [mul(x, y) for x in self.basis() for y in other.basis()]
        return Lattice4.from_vectors(self.alg, vecs)

    def scale(self, c) -> "Lattice4":
        c = Fraction(c)
        if c == 0:
            raise ValueError("cannot scale a lattice by zero")
        return Lattice4.from_frac_rows(
            self.alg, [[c * x for x in row] for row in self.frac_rows()]
        )

    def conjugate(self) -> "Lattice4":
        return Lattice4.from_vectors(self.alg, [conj(v) for v in self.basis()])

    # -- arithmetic invariants ----------------------------------------------

    def norm_content(self) -> Fraction:
        """Positive generator of the fractional ideal spanned by the values
        of the reduced norm on the lattice (content of the norm form)."""
        g = self.int_gram()
        content = gcd(*(g[i][i] for i in range(4)),
                      *(2 * g[i][j] for i in range(4) for j in range(i + 1, 4)))
        return Fraction(content, self.den * self.den)

    def reduced_discriminant(self) -> Fraction:
        """sqrt |det trd(b_i b_j)|; equals prod(ramified) for a maximal
        order and the level for an Eichler order."""
        bas = self.basis()
        mul = self.alg.mul
        T = [[trd(mul(x, y)) for y in bas] for x in bas]
        dd = abs(mat_det(T))
        num, den = dd.numerator, dd.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise IntegralityError(f"discriminant^2 = {dd} is not a square")
        return Fraction(rn, rd)

    def norm_counts(self, bound, scale=1) -> dict[int, int]:
        """#{x in L : nrd(x) = n * scale} for integer n <= bound."""
        scale = Fraction(scale)
        num, den = scale.denominator, scale.numerator * self.den * self.den
        gram = [[Fraction(x * num, den) for x in row] for row in self.int_gram()]
        out: dict[int, int] = {}
        for val, count in count_by_value(gram, bound).items():
            if val.denominator != 1:
                raise IntegralityError(
                    f"norm {val * scale} is not a multiple of {scale}"
                )
            out[int(val)] = count
        return out

    # -- order-related -------------------------------------------------------

    def is_order(self) -> bool:
        if not self.contains(ONE):
            return False
        bas = self.basis()
        if any(trd(b).denominator != 1 for b in bas):
            return False
        if any(self.alg.nrd(b).denominator != 1 for b in bas):
            return False
        mul = self.alg.mul
        return all(self.contains(mul(x, y)) for x in bas for y in bas)


def _multiplication_conditions(lat: Lattice4, side: str) -> Lattice4:
    """Lattice of x with v*x in lat (side='right') or x*v in lat ('left')
    for every v in lat: the right/left order as a lattice."""
    alg = lat.alg
    basis_std = [qelt(1), qelt(0, 1), qelt(0, 0, 1), qelt(0, 0, 0, 1)]
    Binv = mat_inv(lat.frac_rows())
    cond_vectors = []
    for v in lat.basis():
        if side == "right":
            M = [list(alg.mul(v, e)) for e in basis_std]
        else:
            M = [list(alg.mul(e, v)) for e in basis_std]
        A = mat_mul(M, Binv)
        cond_vectors.extend(transpose(A))
    cond_lat = Lattice4.from_frac_rows(alg, cond_vectors)
    rows = transpose(mat_inv(cond_lat.frac_rows()))
    return Lattice4.from_frac_rows(alg, rows)


def right_order_lattice(lat: Lattice4) -> Lattice4:
    return _multiplication_conditions(lat, "right")


def left_order_lattice(lat: Lattice4) -> Lattice4:
    return _multiplication_conditions(lat, "left")


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


class Order:
    """An order (unital subring that is a full lattice), with cached
    unit count and discriminant."""

    def __init__(self, lattice: Lattice4):
        if not lattice.is_order():
            raise ValueError("lattice is not an order")
        self.lattice = lattice
        self._units: int | None = None

    @property
    def alg(self) -> QuaternionAlgebra:
        return self.lattice.alg

    def basis(self) -> list[Quat]:
        return self.lattice.basis()

    @property
    def reduced_discriminant(self) -> int:
        d = self.lattice.reduced_discriminant()
        if d.denominator != 1:
            raise IntegralityError(f"order has fractional discriminant {d}")
        return int(d)

    @property
    def unit_count(self) -> int:
        """Number of elements of reduced norm 1 (both signs counted)."""
        if self._units is None:
            self._units = self.lattice.norm_counts(1).get(1, 0)
        return self._units

    def __eq__(self, other):
        return isinstance(other, Order) and self.lattice == other.lattice

    def __hash__(self):
        return hash(self.lattice)

    def __repr__(self):
        return f"Order({self.lattice.rows}, den={self.lattice.den})"


def _structure_constants(lat: Lattice4):
    """c[r][s] = integer coefficient vector of b_r b_s over the basis."""
    alg = lat.alg
    bas = lat.basis()
    Binv = mat_inv(lat.frac_rows())
    out = []
    for x in bas:
        row = []
        for y in bas:
            prod = alg.mul(x, y)
            coeffs = [
                sum(Fraction(prod[t]) * Binv[t][s] for t in range(4))
                for s in range(4)
            ]
            if any(c.denominator != 1 for c in coeffs):
                raise IntegralityError("basis does not close under products")
            row.append([int(c) for c in coeffs])
        out.append(row)
    return out


def _kernel_mod_p(mat, p: int) -> list[list[int]]:
    """Basis of {v : v M = 0 mod p} by elimination over F_p."""
    n = len(mat)
    M = [[mat[i][j] % p for j in range(len(mat[0]))] + [int(i == j) for j in range(n)]
         for i in range(n)]
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        piv = next((r for r in range(pivot_row, n) if M[r][col] % p), None)
        if piv is None:
            continue
        M[pivot_row], M[piv] = M[piv], M[pivot_row]
        inv = pow(M[pivot_row][col], -1, p)
        M[pivot_row] = [(x * inv) % p for x in M[pivot_row]]
        for r in range(n):
            if r != pivot_row and M[r][col] % p:
                f = M[r][col]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[pivot_row])]
        pivot_row += 1
    # rows below the last pivot have zero data part; their augmented
    # halves record the combinations that killed them
    return [M[r][ncols:] for r in range(pivot_row, n)]


def _radical_coeff_vectors(lat: Lattice4, p: int) -> list[list[int]]:
    """Coefficient vectors spanning the Jacobson radical of O/pO."""
    c = _structure_constants(lat)
    if p != 2:
        # trace form of the regular representation; its radical is the
        # Jacobson radical when p is odd (quotients are matrix algebras
        # over finite fields of characteristic not dividing their degree)
        T = [
            [
                sum(c[r][u][t] * c[s][t][u] for u in range(4) for t in range(4)) % p
                for s in range(4)
            ]
            for r in range(4)
        ]
        return _kernel_mod_p(T, p)
    # p = 2: a residue lies in the radical iff multiplying by anything
    # always gives a nilpotent (fourth powers vanish in dimension 4)
    def mul_mod2(u, v):
        out = [0, 0, 0, 0]
        for r in range(4):
            if not u[r]:
                continue
            for s in range(4):
                if not v[s]:
                    continue
                for t in range(4):
                    out[t] ^= (c[r][s][t] & 1)
        return out

    def nilpotent(v):
        w = mul_mod2(v, v)
        w = mul_mod2(w, w)
        return not any(w)

    members = []
    residues = list(itertools.product((0, 1), repeat=4))
    for v in residues:
        if not any(v):
            continue
        if all(nilpotent(mul_mod2(list(v), list(y))) for y in residues):
            members.append(list(v))
    return hnf_rows(members) if members else []


def _idealizer_step(lat: Lattice4, p: int) -> Lattice4 | None:
    """One radical-idealizer improvement at p, or None if stuck."""
    rad = _radical_coeff_vectors(lat, p)
    bas = lat.basis()
    gens = [qscale(p, b) for b in bas]
    for coeffs in rad:
        gens.append(combine(bas, coeffs))
    J = Lattice4.from_vectors(lat.alg, gens)
    for order_of in (left_order_lattice, right_order_lattice):
        cand = order_of(J)
        if cand != lat and cand.contains_lattice(lat):
            return cand
    return None


def _close_to_order(alg: QuaternionAlgebra, gens: list[Quat]) -> Lattice4 | None:
    """Smallest multiplicatively closed lattice containing gens, or None
    if the generated lattice keeps growing (not integral)."""
    L = Lattice4.from_vectors(alg, gens)
    for _ in range(16):
        M = L.add(L.product(L))
        if M == L:
            return L if L.is_order() else None
        if abs(M.det()) < Fraction(1, 10**9):
            return None  # runaway growth: the generators are not integral
        L = M
    return None


def _saturate_brute(lat: Lattice4, p: int) -> Lattice4 | None:
    """Look for a strictly larger order inside (1/p) * lat."""
    bas = lat.basis()
    alg = lat.alg
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = qscale(Fraction(1, p), combine(bas, coeffs))
        if lat.contains(x):
            continue
        if trd(x).denominator != 1 or alg.nrd(x).denominator != 1:
            continue
        cand = _close_to_order(alg, bas + [x])
        if cand is not None and cand != lat and cand.contains_lattice(lat):
            return cand
    return None


def maximal_order(alg: QuaternionAlgebra) -> Order:
    """A maximal order, grown from Z<1,i,j,k> by radical idealizers."""
    target = alg.discriminant
    lat = Lattice4.standard_order(alg)
    while True:
        disc = lat.reduced_discriminant()
        if disc.denominator != 1:
            raise MaximalOrderNotFoundError(f"fractional discriminant {disc}")
        disc = int(disc)
        if disc == target:
            return Order(lat)
        excess = disc // target
        if disc % target or excess == 1:
            raise MaximalOrderNotFoundError(
                f"discriminant {disc} does not refine to {target}"
            )
        progressed = False
        for p in prime_factors(excess):
            cand = _idealizer_step(lat, p)
            if cand is None:
                cand = _saturate_brute(lat, p)
            if cand is not None:
                lat = cand
                progressed = True
                break
        if not progressed:
            raise MaximalOrderNotFoundError(
                f"stuck at discriminant {disc}, target {target}"
            )


def eichler_order(alg: QuaternionAlgebra, level: int) -> Order:
    """An order of reduced discriminant `level` inside a maximal order.

    level must be a multiple of the algebra discriminant with squarefree
    cofactor prime to it.
    """
    D = alg.discriminant
    if level % D:
        raise ValueError(f"level {level} is not a multiple of the discriminant {D}")
    cofactor = level // D
    if gcd(cofactor, D) != 1:
        raise ValueError(f"level {level} is not squarefree relative to {D}")
    M = maximal_order(alg)
    lat = M.lattice
    for p in prime_factors(cofactor):
        J = _index_p2_left_ideal(M.lattice, p)
        R = right_order_lattice(J)
        lat = lat.intersect(R)
    order = Order(lat)
    if order.reduced_discriminant != level:
        raise MaximalOrderNotFoundError(
            f"order has discriminant {order.reduced_discriminant}, wanted {level}"
        )
    return order


def _index_p2_left_ideal(mlat: Lattice4, p: int) -> Lattice4:
    """First (deterministic scan) left ideal M x + M p of index p^2."""
    bas = mlat.basis()
    alg = mlat.alg
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = combine(bas, coeffs)
        gens = [qscale(p, b) for b in bas] + [alg.mul(b, x) for b in bas]
        J = Lattice4.from_vectors(alg, gens)
        if mlat.index_over(J) == p * p:
            return J
    raise MaximalOrderNotFoundError(f"no index-{p}^2 ideal found")
