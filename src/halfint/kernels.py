"""The integer kernels: Hermite form, LLL, counting lattice vectors by
value, and the eigenspace elimination of the degree matrices.

Everything the package counts goes through `count_by_value`: the
ternary theta series (`theta.ternary_theta`), and the Brandt pairs,
class keys and unit counts (`lattice.Lattice4.norm_counts`, read by
`brandt`).  Lattices, orders and ideal classes live in `lattice` and
`brandt`; this module imports only the standard library.

`hnf_rows` (called by `Lattice4.from_int_rows` and `two_sided_prime`
in `lattice`) brings each column to echelon form around the row whose
entry there has the smallest nonzero absolute value.  A row whose
entry that pivot divides is cleared by one row subtraction; any other
row is combined with the pivot row by the Bezout coefficients of the two
entries, taken from `math.gcd` and a modular inverse (`pow(x, -1, m)`),
and the pivot becomes their gcd.  The Hermite form is unique, so the
pivot rule changes only the work done, never the rows returned.

`count_by_value` is the exact positive-definite enumeration: a
Fincke-Pohst enumerator that takes an integer Gram matrix and an
integer bound and returns the values with their counts, both in units
of the form's content (the gcd of its values, `_form_content`).  Counts
do not depend on the basis,
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
keys ascending.

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

`_eigenspace` is the exact linear algebra of `brandt`'s eigen
decomposition: one forward elimination over Z per eigenspace, on the
integer rows of a block and its product (`_product`) with a degree
matrix, made primitive (`_normalize_primitive`) as it goes.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

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
# small integer helpers
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


# ---------------------------------------------------------------------------
# integer linear algebra for the eigen decomposition (row convention): each
# eigenspace is one forward elimination, and only its span over Q is used
# ---------------------------------------------------------------------------


def _product(
    A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The integer matrix product A B, row by row."""
    return [combine(B, row) for row in A]


def _normalize_primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide out the content, with positive first nonzero entry."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector cannot be normalized")
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _eigenspace(T, block, lam: int) -> list[tuple[int, ...]]:
    """Integer rows spanning {k block : k T = lam k block} over Q, for a
    block of integer rows of full row rank and T = block B.

    Forward elimination over Z of the rows [T - lam block | block]
    (Cohen, GTM 138, Sec. 2.3): the pivot in column c is the first
    remaining row nonzero there, and every other remaining row nonzero
    there becomes pivot[c] row - row[c] pivot, made primitive.  Each row
    is k [T - lam block | block] for some k != 0, so its block half is
    not zero, and the rows never taken as pivots in the first H columns
    end as [0 | k block].
    """
    H = len(block[0])
    rows = [[t - lam * x for t, x in zip(tr, br)] + list(br) for tr, br in zip(T, block)]
    for c in range(H):
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is not None:
            pivot = rows.pop(i)
            for r, row in enumerate(rows):
                if row[c]:
                    rows[r] = _normalize_primitive(
                        [pivot[c] * s - row[c] * t for s, t in zip(row, pivot)]
                    )
    return [tuple(row[H:]) for row in rows]
