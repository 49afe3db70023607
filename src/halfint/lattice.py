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

The integer kernels these lattices run on live in `kernels`, which
imports only the standard library: the Hermite form `hnf_rows` (for
`Lattice4.from_int_rows` and `two_sided_prime`), the enumeration
`count_by_value` and the row combination `combine`.  `Lattice4.norm_counts` is
`count_by_value` on the raw integer Gram matrix, whose content is den^2
times the lattice's norm content, so each count is one LLL pass, its
keys are the reduced norms in units of the norm content, and a lattice
keeps nothing but its rows.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import IntegralityError, MaximalOrderNotFoundError
from .kernels import _form_content, combine, count_by_value, hnf_rows
from .numth import prime_factors
from .quat import QuaternionAlgebra, conj
from .value import Value

# deterministic neighbor prime: levels are odd and ramification sets
# consist of odd primes, so 2 always splits and is prime to the level
NEIGHBOR_PRIME = 2

# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


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


def two_sided_prime(order: Order, q: int) -> Lattice4:
    """The two-sided prime P of an Eichler order O over a prime q of the
    algebra's discriminant: qO plus the lifts of the kernel mod q of the
    trace form trd(x conj(y)) on O's basis.

    At q, O is the maximal order of the division algebra, and P/qO is the
    radical of O/qO, on which the trace form vanishes mod q.  Its Gram
    matrix G = 2 int_gram / den^2 has determinant N^2 for the level N, and
    q^2 exactly divides that, so the kernel has dimension 2 at most, that of
    P/qO: the two are equal.  `int_gram` itself would not do, as den can
    be a multiple of q.  The lifts are the integer v with v G = 0 mod q,
    qZ^4 among them: the right halves of the Hermite rows of the 4 x 4
    blocks [G | 1] over [q | 0] whose left halves are zero.
    """
    lat = order.lattice
    sq = lat.den * lat.den
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    gram = [[2 * x // sq for x in row] for row in lat.int_gram()]
    rows = hnf_rows(
        [g + e for g, e in zip(gram, eye)] + [[q * x for x in e] + [0] * 4 for e in eye]
    )
    lifts = [combine(lat.rows, row[4:]) for row in rows if not any(row[:4])]
    return Lattice4.from_int_rows(lat.alg, lat.den, lifts)
