"""Full lattices in a definite quaternion algebra, and orders.

A lattice is stored as a canonical pair (den, rows): `rows` is the
unique upper-triangular Hermite basis with positive pivots and reduced
entries above each pivot, and den is the common denominator after
removing content.  Canonical form makes equality, hashing and caching
trivial.  Every lattice is built by `Lattice4.from_int_rows` (Hermite
form, then the content divided out), and every operation works on
integer rows: products multiply rows over den_x * den_y, sums bring
both lattices to one denominator, and the right order of an invertible
lattice is the one product conj(L) L / nrd(L).
A lattice is integer rows over a denominator and nothing else: an
element is tested as an integer row over a denominator (`coordinates`),
a rational invariant is an integer pair (the determinant `_det_ratio`
is the pivot product over den^4), and `reduced_discriminant` is an int.

`hnf_rows`, whose one caller is `Lattice4.from_int_rows`, brings each
column to echelon form around the row whose entry there has the
smallest nonzero absolute value.  A row whose entry that pivot divides
is cleared by one row subtraction; any other row is
combined with the pivot row by the Bezout coefficients of the two
entries, taken from `math.gcd` and a modular inverse (`pow(x, -1, m)`),
and the pivot becomes their gcd.  The Hermite form is unique, so the
pivot rule changes only the work done, never the rows returned.

The module also carries the exact positive-definite enumeration used
everywhere counts of lattice points by norm are needed (theta series,
Brandt counts, unit counts): `count_by_value`, a Fincke-Pohst enumerator
that takes an integer Gram matrix and an integer bound and returns the
values with their counts, both in units of the form's content (the gcd
of its values).  Counts do not depend on the basis,
and on a raw Hermite basis most intervals of the enumeration tree come
out empty, so `count_by_value` first runs integral LLL on the matrix it
is given and enumerates on the reduced basis.  That one fraction-free
pass also leaves the leading minors and scaled Gram-Schmidt
coefficients the enumeration needs, and each coordinate's interval
comes from isqrt of an integer budget, so neither floating point nor
rational arithmetic enters the enumeration.  A form takes one value on
c and -c, so the enumeration visits only the half space of vectors
whose last nonzero coordinate is positive and counts each of them
twice.  The count is kept in a list indexed by the value in units of
the content, and each innermost line of the enumeration is walked by
second differences in those units, which are small integers: every
step is a difference of values, so a multiple of the content, and no
division is inexact.  The list has bound + 1 entries, the degree or the
precision the caller asks for, and the histogram comes back with its
keys ascending.  `Lattice4.norm_counts` is `count_by_value` on the raw
integer Gram matrix, whose content is den^2 times the lattice's norm
content, so each count is one LLL pass, its keys are the reduced norms
in units of the norm content, and a lattice keeps nothing but its rows.

These kernels run only on matrices of rank 4 (LLL and the enumeration
also on the ternary forms of the theta series), so their cost is
interpreter overhead rather than integer arithmetic.  They are written
as flat loops over integers: row operations in place from the pivot
column on and LLL's size reduction inline.  The enumeration is one
recursive function, one plain call per node of its tree and at most
three calls deep; no call builds a tuple or a generator per child.
Each call costs little against the big-integer isqrt and divisions
that every line needs anyway.  The tests hold them to slower references
with the same output: `hnf_rows_ref` (first nonzero pivot),
`lll_gram_ref` (the reduced Gram matrix of `_lll`, by an LLL with a
nested size reduction that the flat loop replaced), `bareiss_ref` (the
minors and coefficients of a reduced matrix by a second elimination)
and `count_by_value_ref` (the rational recursion).
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

from .errors import IntegralityError, MaximalOrderNotFoundError
from .numth import prime_factors
from .quat import QuaternionAlgebra, conj
from .value import Value

# deterministic neighbor prime: levels are odd and ramification sets
# consist of odd primes, so 2 always splits and is prime to the level
NEIGHBOR_PRIME = 2

# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def hnf_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix.

    Returns the nonzero echelon rows: upper triangular in the pivot
    columns, positive pivots, entries above each pivot reduced into
    [0, pivot).  Unimodular row operations only; the pivot rule is in
    the module docstring.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    nrows, ncols = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        # the rows from pivot_row on are zero left of col, so operations
        # with the pivot row start at col; the pivot is the first of them
        # with the smallest nonzero |entry| in col
        best, small = -1, 0
        for r in range(pivot_row, nrows):
            x = mat[r][col]
            if x:
                if x < 0:
                    x = -x
                if best < 0 or x < small:
                    best, small = r, x
                    if x == 1:
                        break
        if best < 0:
            continue
        prow = mat[best]
        mat[best] = mat[pivot_row]
        mat[pivot_row] = prow
        for r in range(pivot_row + 1, nrows):
            row = mat[r]
            b = row[col]
            if not b:
                continue
            a = prow[col]
            if b % a == 0:
                q = b // a
                for c in range(col, ncols):
                    row[c] -= q * prow[c]
                continue
            # s a + t b = g with s = (a/g)^-1 mod |b/g|; the 2 x 2 step
            # [[s, t], [-b/g, a/g]] has determinant (s a + t b) / g = 1
            g = gcd(a, b)
            ag, bg = a // g, b // g
            s = pow(ag, -1, abs(bg))
            t = (g - s * a) // b
            for c in range(col, ncols):
                x, y = prow[c], row[c]
                prow[c] = s * x + t * y
                row[c] = ag * y - bg * x
        piv = prow[col]
        if piv < 0:
            piv = -piv
            for c in range(col, ncols):
                prow[c] = -prow[c]
        for r in range(pivot_row):
            row = mat[r]
            q = row[col] // piv
            if q:
                for c in range(col, ncols):
                    row[c] -= q * prow[c]
        pivot_row += 1
    # each of these rows has a positive pivot, so none is zero
    return mat[:pivot_row]


# ---------------------------------------------------------------------------
# exact enumeration of short vectors of a positive-definite form
# ---------------------------------------------------------------------------


def _lll(gram: Sequence[Sequence[int]]):
    """(G, d, lam): the Gram matrix G of an LLL-reduced basis (delta = 3/4)
    of the lattice with positive-definite integer Gram matrix `gram`, its
    leading minors d[0] = 1, d[1], ..., d[n], and lam[k][j] = d[j+1] mu_kj
    for j < k, its scaled Gram-Schmidt coefficients.  Raises ValueError
    when the form is not positive definite.

    Integral LLL on the Gram matrix alone (Cohen, GTM 138, Alg. 2.6.7,
    after Lenstra-Lenstra-Lovasz, Math. Ann. 261, 1982): d and lam are
    integers and kept for the current basis, and every basis change is
    applied to the Gram matrix as a row and a column operation.  On a
    reduced matrix the pass changes nothing, so it returns that matrix
    with its own minors and coefficients.
    """
    n = len(gram)
    G = [list(row) for row in gram]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    k, kmax = 0, -1
    while k < n:
        # lam's rows stay in place (a swap exchanges entries), G's move
        lk = lam[k]
        if k > kmax:
            # incremental Gram-Schmidt for the new vector b_k
            kmax = k
            Gk = G[k]
            for j in range(k + 1):
                u, lj = Gk[j], lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                elif u <= 0:
                    raise ValueError("form is not positive definite")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        # size-reduce b_k against b_{k-1}, test the Lovasz condition there,
        # and only when it holds size-reduce against b_{k-2}, ..., b_0
        for l in range(k - 1, -1, -1):
            dl, r = d[l + 1], lk[l]
            if 2 * abs(r) > dl:
                # b_k -= q b_l with q the integer nearest to mu_kl
                q = (2 * r + dl) // (2 * dl)
                Gk, Gl = G[k], G[l]
                for j in range(n):
                    Gk[j] -= q * Gl[j]
                for row in G:
                    row[k] -= q * row[l]
                lk[l] = r - q * dl
                ll = lam[l]
                for i in range(l):
                    lk[i] -= q * ll[i]
            if l < k - 1:
                continue
            mu, dk, dk1 = lk[l], d[k], d[k + 1]
            if 4 * dk1 * d[l] < 3 * dk * dk - 4 * mu * mu:
                # the Lovasz condition fails: exchange b_k and b_{k-1}
                G[k], G[l] = G[l], G[k]
                for row in G:
                    row[k], row[l] = row[l], row[k]
                ll = lam[l]
                for j in range(l):
                    lk[j], ll[j] = ll[j], lk[j]
                new = (d[l] * dk1 + mu * mu) // dk
                for i in range(k + 1, kmax + 1):
                    li = lam[i]
                    t = li[k]
                    li[k] = (dk1 * li[l] - mu * t) // dk
                    li[l] = (new * t + mu * li[k]) // dk1
                d[k] = new
                k = max(1, l)
                break
        else:
            k += 1
    return G, d, lam


def count_by_value(gram: Sequence[Sequence[int]], bound: int) -> dict[int, int]:
    """Histogram {c^t G c / u: count} over the integer vectors c with
    c^t G c <= bound u, for a positive-definite integer Gram matrix G whose
    content (the gcd of its values, `_form_content`) is u: values and the
    bound are in units of u.  The zero vector counts once, c and -c apart,
    and the keys come in ascending order.  Raises ValueError when G is not
    positive definite.

    Integer-exact Fincke-Pohst enumeration (Math. Comp. 44, 1985) on the
    basis that one LLL pass (`_lll`) makes of G.  With M_k the leading
    minors of that basis and l_ci = M_{i+1} mu_ci its scaled Gram-Schmidt
    coefficients, both left by the pass,

        Q(c) = sum_i (M_{i+1} c_i + s_i)^2 / (M_i M_{i+1}),

    where s_i = sum_{c > i} l_ci c_c, the coordinates after i weighted by
    the coefficients against vector i.  The budget is the integer
    S u bound, S = lcm_i(M_i M_{i+1}), and each term is an integer
    w_i y_i^2 with w_i = S / (M_i M_{i+1}) and y_i = M_{i+1} c_i + s_i.
    Coordinate i runs over the integers whose own term fits the budget
    left by the coordinates after it, last coordinate slowest, in one
    recursive call per node of the enumeration tree: a call at coordinate
    i > 0 sums its children's shift over the coordinates after i once, as
    `base`, and passes base + l_i,i-1 c_i to the child of each c_i.  The
    depth is at most n - 1, and a call gets its parent's coordinate apart
    from the ones after it, so no call builds a tuple per child.

    The count goes into a list indexed by Q(c) / u, so it takes O(bound)
    memory: for the callers u is the unit of the norm and the bound is
    the degree or the precision asked for.  The first coordinate's run is
    one line, walked by second differences in units of u.  The budget
    `left` it gets is S u bound - used, where `used` is the sum of the
    terms of the coordinates after the first, S Q(c) - w_0 y^2 for its
    first vector c (y_0 = y).  Both are multiples of w_0 (w_0 divides S),
    so room = left / w_0 is exact, and Q(c) / u = bound - (room - y^2) /
    (M_1 u).  One step (y_0 += M_1) adds 2 y_0 + M_1 to Q, and each step
    adds 2 M_1 more.  These are values of lattice vectors or differences
    of them (2 M_1 = 2 Q(b_0)), so multiples of u, and every division is
    exact.

    c and -c have one value, so only the nonzero vectors whose last
    nonzero coordinate is positive are visited, and each counts twice:
    while the coordinates after i are all 0 (so s_i = 0), coordinate i
    runs over 0..hi, and the first one over 1..hi.
    """
    if bound < 0:
        return {}
    n = len(gram)
    _, minors, lam = _lll(gram)
    unit = _form_content(gram)
    scale = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    weights = [scale // (minors[i] * minors[i + 1]) for i in range(n)]
    cnt = [0] * (bound + 1)
    m0 = minors[1]
    mu, dd = m0 * unit, 2 * m0 // unit
    # lam_rows[i][c] = l_ci: the coefficients against vector i, for c > i
    lam_rows = list(zip(*lam))

    def walk(i, t, left, zero, above, later):
        # coordinate i with shift t and budget left; above is coordinate
        # i + 1 (0 at the last coordinate) and later the ones after it,
        # nearest first; zero is whether all of them are 0
        m, w = minors[i + 1], weights[i]
        room = left // w
        ymax = isqrt(room)
        lo, hi = -((ymax + t) // m), (ymax - t) // m
        if zero:
            lo = 0 if i else 1
        if i == 0:
            # the line c_0 = lo..hi, as values Q(c) / u
            y = m * lo + t
            v = bound - (room - y * y) // mu
            d = (2 * y + m) // unit
            for _ in range(lo, hi + 1):
                cnt[v] += 1
                v += d
                d += dd
            return
        after = (above, *later)
        row = lam_rows[i - 1]
        base = 0
        for l, x in zip(row[i + 1:], after):
            base += l * x
        l = row[i]
        for x in range(lo, hi + 1):
            y = m * x + t
            walk(i - 1, base + l * x, left - w * y * y, zero and not x, x, after)

    walk(n - 1, 0, scale * unit * bound, True, 0, ())
    # the zero vector is not in the half space, so cnt[0] is 0
    counts = {0: 1}
    counts.update((k, 2 * c) for k, c in enumerate(cnt) if c)
    return counts


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _form_content(gram: Sequence[Sequence[int]]) -> int:
    """The gcd of the values of x^t G x over integer x: the gcd of the
    G_ii and the 2 G_ij."""
    n = len(gram)
    return gcd(*(gram[i][i] for i in range(n)),
               *(2 * gram[i][j] for i in range(n) for j in range(i + 1, n)))


def combine(rows: Sequence[Sequence[int]], coeffs: Sequence[int]) -> tuple[int, ...]:
    """The integer combination sum coeffs[r] * rows[r] of integer rows."""
    v = (0,) * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            v = tuple(x + c * y for x, y in zip(v, row))
    return v


class Lattice4(Value):
    """Full rank-4 lattice in a definite quaternion algebra.

    rows/den is the canonical Hermite basis: basis vector r is
    (rows[r][0] + rows[r][1] i + rows[r][2] j + rows[r][3] k) / den.
    Immutable, equal by (alg, den, rows) and hashable.
    """

    __slots__ = ("alg", "den", "rows")

    def __init__(
        self, alg: QuaternionAlgebra, den: int, rows: tuple[tuple[int, int, int, int], ...]
    ):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_int_rows(
        cls, alg: QuaternionAlgebra, den: int, rows: Iterable[Sequence[int]]
    ) -> "Lattice4":
        """The lattice spanned by the integer rows over den >= 1."""
        if den < 1:
            raise ValueError("lattice denominator must be positive")
        hrows = hnf_rows(rows)
        if len(hrows) != 4:
            raise ValueError("lattice is not of full rank")
        content = gcd(den, *(x for row in hrows for x in row))
        return cls(
            alg, den // content, tuple(tuple(x // content for x in row) for row in hrows)
        )

    @classmethod
    def standard_order(cls, alg: QuaternionAlgebra) -> "Lattice4":
        eye = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        return cls(alg, 1, eye)

    # -- views -------------------------------------------------------------

    def _det_ratio(self) -> tuple[int, int]:
        """The determinant of the basis as (numerator, denominator), both
        positive, not reduced: the product of the Hermite pivots over den^4."""
        rows = self.rows
        return rows[0][0] * rows[1][1] * rows[2][2] * rows[3][3], self.den**4

    def int_gram(self) -> list[list[int]]:
        """den^2 times the Gram matrix: rows diag(1, a, b, ab) rows^t, its
        10 entries on and above the diagonal as plain sums, mirrored."""
        a, b = self.alg.a, self.alg.b
        ab = a * b
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = self.rows
        # each row weighted by diag(1, a, b, ab)
        u1, u2, u3 = a * p1, b * p2, ab * p3
        v1, v2, v3 = a * q1, b * q2, ab * q3
        w1, w2, w3 = a * r1, b * r2, ab * r3
        g00 = p0 * p0 + u1 * p1 + u2 * p2 + u3 * p3
        g01 = p0 * q0 + u1 * q1 + u2 * q2 + u3 * q3
        g02 = p0 * r0 + u1 * r1 + u2 * r2 + u3 * r3
        g03 = p0 * s0 + u1 * s1 + u2 * s2 + u3 * s3
        g11 = q0 * q0 + v1 * q1 + v2 * q2 + v3 * q3
        g12 = q0 * r0 + v1 * r1 + v2 * r2 + v3 * r3
        g13 = q0 * s0 + v1 * s1 + v2 * s2 + v3 * s3
        g22 = r0 * r0 + w1 * r1 + w2 * r2 + w3 * r3
        g23 = r0 * s0 + w1 * s1 + w2 * s2 + w3 * s3
        g33 = s0 * s0 + a * s1 * s1 + b * s2 * s2 + ab * s3 * s3
        return [
            [g00, g01, g02, g03],
            [g01, g11, g12, g13],
            [g02, g12, g22, g23],
            [g03, g13, g23, g33],
        ]

    # -- membership and comparison -----------------------------------------

    def coordinates(self, num: Sequence[int], den: int = 1) -> list[int] | None:
        """The integer coefficients of num / den over the basis (num an
        integer 4-vector), or None when num / den is not in the lattice."""
        target = []
        for t in num:
            q, r = divmod(t * self.den, den)
            if r:
                return None
            target.append(q)
        # rows are upper triangular with pivot i in column i, so peel off
        # coefficients left to right
        coeffs = []
        for col in range(4):
            c, r = divmod(target[col], self.rows[col][col])
            if r:
                return None
            coeffs.append(c)
            if c:
                for t in range(col + 1, 4):
                    target[t] -= c * self.rows[col][t]
        return coeffs

    # -- lattice operations --------------------------------------------------

    def add(self, other: "Lattice4") -> "Lattice4":
        if self.alg != other.alg:
            raise ValueError("lattices live in different algebras")
        den = lcm(self.den, other.den)
        rows = [[x * (den // L.den) for x in row] for L in (self, other) for row in L.rows]
        return Lattice4.from_int_rows(self.alg, den, rows)

    def product(self, other: "Lattice4") -> "Lattice4":
        """Lattice generated by all pairwise products."""
        if self.alg != other.alg:
            raise ValueError("lattices live in different algebras")
        mul = self.alg.mul
        products = [mul(x, y) for x in self.rows for y in other.rows]
        return Lattice4.from_int_rows(self.alg, self.den * other.den, products)

    def scale(self, c: int) -> "Lattice4":
        """c L for a nonzero integer c."""
        if c == 0:
            raise ValueError("cannot scale a lattice by zero")
        rows = [[c * x for x in row] for row in self.rows]
        return Lattice4.from_int_rows(self.alg, self.den, rows)

    def conjugate(self) -> "Lattice4":
        return Lattice4.from_int_rows(self.alg, self.den, [conj(row) for row in self.rows])

    # -- arithmetic invariants ----------------------------------------------

    def reduced_discriminant(self) -> int:
        """sqrt |det trd(b_i b_j)|; equals prod(ramified) for a maximal
        order and the level for an Eichler order.  It is an integer for
        every order; IntegralityError otherwise.

        The trace form on 1, i, j, k has determinant -16 a^2 b^2, so this
        is 4ab [Z<1,i,j,k> : L].
        """
        num, den = self._det_ratio()
        num *= 4 * self.alg.a * self.alg.b
        if num % den:
            raise IntegralityError(f"lattice has fractional discriminant {num}/{den}")
        return num // den

    def norm_counts(self, bound: int) -> dict[int, int]:
        """#{x in L : nrd(x) = n * content} for n <= bound, where content
        generates the values of nrd on L: `count_by_value` on `int_gram`,
        whose content is den^2 times that of nrd."""
        return count_by_value(self.int_gram(), bound)

    # -- order-related -------------------------------------------------------

    def is_order(self) -> bool:
        """Whether the lattice contains 1 and is closed under products (a
        ring that is a finitely generated group, so its elements are
        integral)."""
        if self.coordinates((1, 0, 0, 0)) is None:
            return False
        mul, sq = self.alg.mul, self.den * self.den
        return all(
            self.coordinates(mul(x, y), sq) is not None
            for x in self.rows
            for y in self.rows
        )


def right_order_lattice(lat: Lattice4) -> Lattice4:
    """{x : L x in L} for an invertible lattice L, which is
    conj(L) L / nrd(L) (Voight, Quaternion Algebras, ch. 16).  Over the
    rows r / den, conj(L) L is spanned by the conj(r) s / den^2 and nrd(L)
    is content(int_gram) / den^2, so the den^2 cancel."""
    alg = lat.alg
    products = [alg.mul(conj(x), y) for x in lat.rows for y in lat.rows]
    return Lattice4.from_int_rows(alg, _form_content(lat.int_gram()), products)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


class Order(Value):
    """An order (unital subring that is a full lattice).  Immutable, equal
    by its lattice and hashable."""

    __slots__ = ("lattice",)

    def __init__(self, lattice: Lattice4):
        if not lattice.is_order():
            raise ValueError("lattice is not an order")
        object.__setattr__(self, "lattice", lattice)

    @property
    def alg(self) -> QuaternionAlgebra:
        return self.lattice.alg

    @property
    def reduced_discriminant(self) -> int:
        return self.lattice.reduced_discriminant()


def _close_to_order(L: Lattice4) -> Lattice4 | None:
    """Smallest multiplicatively closed lattice containing L, or None when
    no order contains it.

    Every order lies in a maximal order, of reduced discriminant D, so a
    lattice M inside an order has 4ab det(M) = D [O_max : M], a positive
    multiple of D.  The lattices L, L + L L, ... grow strictly until one
    is closed, so that value falls strictly; the first that is not a
    multiple of D shows that no order contains L, and the loop ends.
    """
    four_ab, D = 4 * L.alg.a * L.alg.b, L.alg.discriminant
    while True:
        M = L.add(L.product(L))
        if M == L:
            return L
        num, den = M._det_ratio()
        if four_ab * num % (den * D):
            return None
        L = M


def _saturate_brute(lat: Lattice4, p: int) -> Lattice4 | None:
    """A strictly larger order inside (1/p) lat, or None when lat is
    maximal at p: the closure of lat and the first x in (1/p) lat, in the
    fixed residue scan, that closes to an order strictly containing lat.

    The scan is complete: if lat is properly contained in an order O' of
    p-power index, then O'/lat has an element of order p, that is some
    x not in lat with p x in lat, and the closure of lat and x stays
    inside O'.
    """
    alg, den = lat.alg, p * lat.den
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = combine(lat.rows, coeffs)  # the candidate element is x / den
        if lat.coordinates(x, den) is not None:
            continue
        if 2 * x[0] % den or alg.nrd(x) % (den * den):
            continue
        gens = [[p * t for t in row] for row in lat.rows] + [x]
        cand = _close_to_order(Lattice4.from_int_rows(alg, den, gens))
        if cand is not None:
            return cand
    return None


def maximal_order(alg: QuaternionAlgebra) -> Order:
    """A maximal order, grown from Z<1,i,j,k> by saturation
    (`_saturate_brute`) at the primes of the excess discriminant."""
    target = alg.discriminant
    lat = Lattice4.standard_order(alg)
    while True:
        disc = lat.reduced_discriminant()
        if disc == target:
            return Order(lat)
        excess = disc // target
        if disc % target or excess == 1:
            raise MaximalOrderNotFoundError(
                f"discriminant {disc} does not refine to {target}"
            )
        for p in prime_factors(excess):
            cand = _saturate_brute(lat, p)
            if cand is not None:
                lat = cand
                break
        else:
            raise MaximalOrderNotFoundError(
                f"stuck at discriminant {disc}, target {target}"
            )


def _neighbors(ideal: Lattice4, right: Order, p: int = NEIGHBOR_PRIME) -> Iterator[Lattice4]:
    """Distinct index-p^2 subideals I x + p I over rank-one residues x of
    the right order mod p (the p+1 neighbors in the Brandt graph), for p
    prime to the reduced discriminant of the right order.  That order is
    M_2(Z_p) at p, so every nonzero residue of norm 0 mod p has rank one
    and gives a subideal of index exactly p^2."""
    alg = ideal.alg
    rden, rrows = right.lattice.den, right.lattice.rows
    seen = set()
    # p is prime to the level, so the scan stops after the p+1 neighbours
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = combine(rrows, coeffs)  # the residue is x / rden
        if alg.nrd(x) % (p * rden * rden):
            continue  # invertible residue: J would be all of I
        J = Lattice4.from_int_rows(
            alg,
            ideal.den * rden,
            [alg.mul(row, x) for row in ideal.rows]
            + [[p * rden * t for t in row] for row in ideal.rows],
        )
        key = (J.den, J.rows)
        if key in seen:
            continue
        seen.add(key)
        yield J
        if len(seen) == p + 1:
            return


def eichler_order(alg: QuaternionAlgebra, level: int) -> Order:
    """An order of reduced discriminant `level` inside a maximal order M:
    Z + c M + sum_p (c/p) J_p over the primes p of the cofactor c, with
    J_p the first neighbour of M at p.  That is M cap O_R(J_p) over all p:
    Z + J_p is a ring (J_p J_p lies in M J_p = J_p) of index p in M inside
    M cap O_R(J_p), which also has index p, and at each p the sum is
    Z + J_p while at every other prime it is M.

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
    lat = M.lattice.scale(cofactor)
    for p in prime_factors(cofactor):
        J = next(_neighbors(M.lattice, M, p), None)
        if J is None:
            raise MaximalOrderNotFoundError(f"no index-{p}^2 ideal found")
        lat = lat.add(J.scale(cofactor // p))
    order = Order(Lattice4.from_int_rows(alg, lat.den, lat.rows + ((lat.den, 0, 0, 0),)))
    if order.reduced_discriminant != level:
        raise MaximalOrderNotFoundError(
            f"order has discriminant {order.reduced_discriminant}, wanted {level}"
        )
    return order
