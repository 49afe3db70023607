"""Ideal classes of a definite order and their endomorphism matrices.

Conventions used throughout (and pinned by the tests):

* classes are left ideals of the base order, principal class first, in
  the deterministic breadth-first discovery order;
* e_j is the full number of norm-1 units of the right order of the j-th
  class (both signs counted), and the total mass sum(2/e_j) must equal
  phi(D) psi(N/D) / 12;
* the degree-n matrix has entries
      B(n)[i][j] = #{x in conj(I_j) I_i : nrd(x) = n * content} / e_j,
  so B(1) is the identity and coefficient vectors act as rows, v -> vB;
* a cuspidal rational eigenline is normalized primitive integral with
  positive first nonzero entry.

Pair lattices conj(I_j) I_i are built from two left generators of I_i
(`_left_generators`, found once per class): when I_i = O y1 + O y2 for
the base order O, conj(I_j) I_i = conj(I_j) O y1 + conj(I_j) O y2, and
conj(I_j) O = conj(I_j) because conj(I_j) is a right O-ideal (I_j has
left order O).  So the 8 products of conj(I_j)'s rows with y1, y2 span
the same lattice as the 16 products of the two bases.  Row 0 and the
diagonal need no pair lattice at all (`IdealClassSet._count`): counts
are in units of the content, conj(I_j) O = conj(I_j) has the counts of
I_j, and conj(I_j) I_j = nrd(I_j) O_j those of the right order O_j.
The class search counts each class (its key) and each right order (its
unit count) to KEY_DEGREE, the largest degree the refinement plans at
most levels, and those counts serve as the pairs (0, j) and (j, j) of
every pass up to that degree; a deeper pass counts them on classes[j]
and rights[j].lattice, which the class search has already counted.

Classes come only from the search (`ideal_classes`).  A cached state
(`IdealClassSet.from_state`) contributes only its degree matrices, and
only when its classes and unit counts are exactly the searched ones and
each stored degree up to KEY_DEGREE has the searched counts in row 0 and
on the diagonal, so the classes and their order never depend on a cache
file.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Sequence

from .errors import (
    IntegralityError,
    IrrationalEigenspaceError,
    MassMismatchError,
    MissingEigenvalueError,
)
from .lattice import (
    NEIGHBOR_PRIME,
    Lattice4,
    Order,
    _neighbors,
    combine,
    hnf_rows,
    right_order_lattice,
)
from .numth import TRIAL_BOUND, divisors, is_prime, prime_factors, primes

# eigenlines are ordered by their eigenvalues at these primes, so every
# searched class set has these degree matrices built
ORDER_PRIMES = (2, 3, 5, 7, 11, 13)

# degree up to which the class search counts each class (its key, see
# `_class_key`) and each right order: the degree of every counting pass
# whose pinned primes are at most max(ORDER_PRIMES)
KEY_DEGREE = max(ORDER_PRIMES)

# eigenlines are refined under the degree matrices at the primes up to
# this bound (and at the primes dividing the level)
PRIME_BOUND = 60


def _phi(n: int) -> int:
    out = 1
    for p in prime_factors(n):
        out *= p - 1
    return out


def _psi(n: int) -> int:
    out = 1
    for p in prime_factors(n):
        out *= p + 1
    return out


def _unit_mass(unit_counts: Sequence[int]) -> tuple[int, int]:
    """sum(2/e) over the unit counts e, as a reduced pair (num, den)."""
    den = lcm(*unit_counts)
    num = sum(2 * (den // e) for e in unit_counts)
    g = gcd(num, den)
    return num // g, den // g


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, as "num/den" or as "num" when it is an
    integer; den > 0."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# ideal classes
# ---------------------------------------------------------------------------


def _is_principal(lat: Lattice4) -> bool:
    """Whether the norm form on the lattice represents its content."""
    return lat.norm_counts(1).get(1, 0) > 0


def equivalent_ideals(I: Lattice4, J: Lattice4) -> bool:
    """Left ideals are isomorphic iff conj(I) J is principal."""
    return _is_principal(I.conjugate().product(J))


def _left_generators(order: Order, I: Lattice4) -> tuple[tuple[int, ...], ...]:
    """Integer rows y over I.den with I = sum of the O y, O = `order`: the
    first pair (rows[0], rows[r]), r = 1, 2, 3, that generates I, else
    the four basis rows (1 is in O, so they always do)."""
    mul, O = I.alg.mul, order.lattice
    for r in (1, 2, 3):
        pair = (I.rows[0], I.rows[r])
        products = [mul(o, y) for o in O.rows for y in pair]
        if Lattice4.from_int_rows(I.alg, O.den * I.den, products) == I:
            return pair
    return I.rows


def _pair_lattice(conj_j: Lattice4, I: Lattice4, gens) -> Lattice4:
    """conj(I_j) I_i from conj_j = conj(I_j) and the left generators
    `gens` of I = I_i; I_j must have left order O (module docstring)."""
    mul = I.alg.mul
    products = [mul(x, y) for x in conj_j.rows for y in gens]
    return Lattice4.from_int_rows(I.alg, conj_j.den * I.den, products)


def _class_key(I: Lattice4) -> dict[int, int]:
    """The numbers of x in I with nrd(x) = n * content(I), n = 0..KEY_DEGREE,
    as `norm_counts` gives them.

    I x has content nrd(x) content(I) and the same counts, so this is a
    class invariant: ideals with different keys are not equivalent.  The
    key of I_j is the count of the Brandt pair (0, j).
    """
    return I.norm_counts(KEY_DEGREE)


class IdealClassSet:
    """The left ideal classes of a definite order, with cached counts."""

    def __init__(
        self,
        order: Order,
        classes: list[Lattice4],
        rights: list[Order],
        unit_counts: list[int],
        gens: list,
        counts: dict[tuple[int, int], dict[int, int]] | None = None,
    ):
        self.order = order
        self.classes = classes
        self.rights = rights
        # unit_counts[j] is e_j, the unit count of rights[j]
        self.unit_counts = unit_counts
        # gens[i] generate classes[i] as a left ideal (`_left_generators`)
        self.gens = gens
        # raw counts per unordered pair (i <= j), complete up to degree
        # _counted; the pairs in _seeded (from `counts`, made by the class
        # search) are complete up to KEY_DEGREE at least
        self._counts = dict(counts or {})
        self._seeded = frozenset(self._counts)
        self._counted = 0
        self._planned = 0
        self._matrices: dict[int, tuple[tuple[int, ...], ...]] = {}

    # -- basic data ----------------------------------------------------------

    @property
    def h(self) -> int:
        return len(self.classes)

    @property
    def level(self) -> int:
        return self.order.reduced_discriminant

    @property
    def alg(self):
        return self.order.alg

    @property
    def mass_text(self) -> str:
        """The mass sum(2/e_j) as "num/den" in lowest terms, or "num"."""
        return _ratio_text(*_unit_mass(self.unit_counts))

    # -- degree matrices -----------------------------------------------------

    def plan(self, nmax: int) -> None:
        """Make the next counting pass run to degree nmax at least, so that
        one pass over the class pairs serves every degree up to nmax."""
        self._planned = max(self._planned, nmax)

    def _count(self, nmax: int) -> None:
        """Count every unordered pair of classes up to degree nmax.

        The raw counts are symmetric: conj(I_i) I_j is the conjugate lattice
        of conj(I_j) I_i, and conjugation keeps the reduced norm.  Up to
        KEY_DEGREE the seeded pairs keep the counts the class search made;
        otherwise the pairs (0, j) are counted on classes[j] and the pairs
        (j, j) on rights[j].lattice, which have the same counts (module
        docstring).  Only the pairs 0 < i < j build a lattice.
        """
        classes, rights = self.classes, self.rights
        seeded = self._seeded if nmax <= KEY_DEGREE else ()
        for j in range(self.h):
            if j > 1:
                conj_j = classes[j].conjugate()
            for i in range(j + 1):
                if (i, j) in seeded:
                    continue
                if i == 0:
                    P = classes[j]
                elif i == j:
                    P = rights[j].lattice
                else:
                    P = _pair_lattice(conj_j, classes[i], self.gens[i])
                self._counts[i, j] = P.norm_counts(nmax)
        self._counted = nmax

    def brandt(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The degree-n matrix (n >= 1), rows indexed by source class."""
        if n < 1:
            raise ValueError("degree must be >= 1")
        if n not in self._matrices:
            if n > self._counted:
                self._count(max(n, self._planned))
            H = self.h
            es = self.unit_counts
            rows = []
            for i in range(H):
                row = []
                for j in range(H):
                    raw = self._counts[min(i, j), max(i, j)].get(n, 0)
                    if raw % es[j]:
                        raise IntegralityError(
                            f"count {raw} at ({i},{j},{n}) not divisible by e_j={es[j]}"
                        )
                    row.append(raw // es[j])
                rows.append(tuple(row))
            self._matrices[n] = tuple(rows)
        return self._matrices[n]

    def apply(self, v: Sequence, n: int) -> list:
        """Row action v -> v B(n)."""
        return list(combine(self.brandt(n), v))

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "classes": [
                {"den": c.den, "rows": [list(r) for r in c.rows]} for c in self.classes
            ],
            "unit_counts": self.unit_counts,
            "brandt": {
                str(n): [list(r) for r in mat]
                for n, mat in sorted(self._matrices.items())
            },
        }

    @classmethod
    def from_state(cls, searched: "IdealClassSet", state: dict) -> "IdealClassSet":
        """`searched` itself (from `ideal_classes`), with the degree matrices
        of `to_state` output attached once they pass every check.

        Raises ValueError when the stored classes or unit counts are not
        those of `searched`, when a stored matrix breaks an invariant of
        the degree matrices (see `_check_degree_matrix`), when a stored
        degree up to KEY_DEGREE has a row 0 or a diagonal other than the
        counts the search made (module docstring) or when two stored
        matrices do not commute.  The stored classes are only compared,
        never built into lattices, and a failed load leaves `searched` as
        it was.
        """
        expected = searched.to_state()
        if (
            state["classes"] != expected["classes"]
            or state["unit_counts"] != expected["unit_counts"]
        ):
            raise ValueError("cached classes are not the ones the search finds")
        es, ramified = searched.unit_counts, searched.alg.ramified
        stored = state.get("brandt", {})
        if not isinstance(stored, dict):
            raise ValueError("cached degree matrices are not a JSON object")
        mats = {}
        for n, mat in stored.items():
            n = int(n)
            _check_degree_matrix(n, mat, es, searched.level, ramified)
            # up to KEY_DEGREE, row 0 and the diagonal are the search's counts
            if n <= KEY_DEGREE and any(
                mat[i][j] * es[j] != searched._counts[i, j].get(n, 0)
                for j in range(len(es))
                for i in (0, j)
            ):
                raise ValueError(f"cached degree-{n} matrix differs from the searched counts")
            mats[n] = tuple(tuple(row) for row in mat)
        # with B E = E B^t for both (E = diag(es)), (A B) E = E (B A)^t, so
        # A B is weighted-symmetric exactly when A B = B A
        if not all(
            _weighted_symmetric(_product(mats[m], mats[n]), es)
            for m, n in itertools.combinations(mats, 2)
        ):
            raise ValueError("cached degree matrices do not commute")
        searched._matrices = mats
        return searched


def _check_degree_matrix(
    n: int, mat, es: list[int], level: int, ramified: Sequence[int]
) -> None:
    """Raise ValueError unless `mat` can be the degree-n matrix: n from 1
    to the trial-division bound (the row-sum check factors n), h x h with
    non-negative integer entries, the identity at n = 1, symmetric after
    weighting (e_j B_ij = e_i B_ji), with row sums sigma(n) (the sum of
    the divisors of n) at every n prime to the level, and a single 1 in
    every row at ramified primes (with the symmetry, the permutation
    matrix of an involution)."""
    h = len(es)
    if not 1 <= n <= TRIAL_BOUND or len(mat) != h or any(len(row) != h for row in mat):
        raise ValueError(f"cached degree-{n} matrix has the wrong degree or shape")
    if any(type(x) is not int or x < 0 for row in mat for x in row):
        raise ValueError(f"cached degree-{n} matrix has an entry that is not a count")
    if n == 1 and any(mat[i][j] != (i == j) for i in range(h) for j in range(h)):
        raise ValueError("cached degree-1 matrix is not the identity")
    if not _weighted_symmetric(mat, es):
        raise ValueError(f"cached degree-{n} matrix breaks the weighted symmetry")
    if gcd(n, level) == 1 and {sum(row) for row in mat} != {sum(divisors(n))}:
        raise ValueError(f"cached degree-{n} matrix has a row sum other than sigma({n})")
    if n in ramified and any(sorted(row) != [0] * (h - 1) + [1] for row in mat):
        raise ValueError(
            f"cached degree-{n} matrix at a ramified prime is not a permutation"
        )


def _weighted_symmetric(mat, es: Sequence[int]) -> bool:
    """Whether e_j M_ij = e_i M_ji for all i, j: M E = E M^t, E = diag(es)."""
    h = len(es)
    return all(es[j] * mat[i][j] == es[i] * mat[j][i] for i in range(h) for j in range(i))


def ideal_classes(order: Order) -> IdealClassSet:
    """Breadth-first enumeration of the left ideal classes, terminated by
    the exact mass count.

    A neighbour is tested for equivalence only against the classes with
    its key (`_class_key`); the keys skip only tests that must fail, so
    the classes and their order are those of testing every class.  A
    class I found as a neighbour of I_parent skips its neighbour
    p I_parent (p = NEIGHBOR_PRIME) with no key and no test: p I_parent
    lies between p I and I with index p^2, so it is one of the p + 1
    neighbours of I, and it is equivalent to I_parent.  This is the only
    source of classes: `IdealClassSet.from_state` compares stored classes
    with these and takes only degree matrices from them.
    """
    # the mass sum(2/e_j) is num/den, and the target is twelfths/12
    twelfths = _phi(order.alg.discriminant) * _psi(
        order.reduced_discriminant // order.alg.discriminant
    )
    classes = [order.lattice]
    # the pairs (0, j) and (j, j), counted to KEY_DEGREE (module docstring):
    # counts[0, j] is the key of classes[j], and counts[j, j][1] the unit
    # count of rights[j]; I_0 = O is its own right order
    counts = {(0, 0): _class_key(order.lattice)}
    gens = [_left_generators(order, order.lattice)]
    rights = [order]
    unit_counts = [counts[0, 0].get(1, 0)]
    num, den = _unit_mass(unit_counts)
    # (class, the class it was found as a neighbour of)
    frontier = [(0, None)]
    while 12 * num < twelfths * den and frontier:
        idx, parent = frontier.pop(0)
        back = None if parent is None else classes[parent].scale(NEIGHBOR_PRIME)
        for J in _neighbors(classes[idx], rights[idx]):
            if J == back:
                continue
            key = _class_key(J)
            same = [i for i in range(len(classes)) if counts[0, i] == key]
            if same:
                conj_J = J.conjugate()
                if any(
                    _is_principal(_pair_lattice(conj_J, classes[i], gens[i])) for i in same
                ):
                    continue
            j = len(classes)
            classes.append(J)
            gens.append(_left_generators(order, J))
            right = right_order_lattice(J)
            counts[0, j] = key
            counts[j, j] = right.norm_counts(KEY_DEGREE)
            rights.append(Order(right))
            unit_counts.append(counts[j, j].get(1, 0))
            num, den = _unit_mass(unit_counts)
            frontier.append((j, idx))
            if 12 * num >= twelfths * den:
                break
    if 12 * num != twelfths * den:
        raise MassMismatchError(
            f"class search ended with mass {_ratio_text(num, den)}, "
            f"expected {_ratio_text(twelfths, 12)}"
        )
    return IdealClassSet(order, classes, rights, unit_counts, gens, counts)


# ---------------------------------------------------------------------------
# integer linear algebra for the eigen decomposition (row convention)
# ---------------------------------------------------------------------------


def _product(
    A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The integer matrix product A B, row by row."""
    return [combine(B, row) for row in A]


def _left_kernel(M: Sequence[Sequence[int]]) -> list[list[int]]:
    """A basis of the integer vectors k with k M = 0, for an integer d x H
    matrix M: the rows of the Hermite form of [M | I] whose M half is zero
    (Cohen, GTM 138, Sec. 2.4.3)."""
    d, H = len(M), len(M[0])
    echelon = hnf_rows(list(M[r]) + [int(r == c) for c in range(d)] for r in range(d))
    return [row[H:] for row in echelon if not any(row[:H])]


def _normalize_primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide out the content, with positive first nonzero entry."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector cannot be normalized")
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


# ---------------------------------------------------------------------------
# simultaneous rational eigenlines
# ---------------------------------------------------------------------------


class Eigenform:
    """A rational simultaneous eigenline of the degree matrices."""

    __slots__ = ("class_set", "vector", "eigs")

    def __init__(
        self,
        class_set: IdealClassSet,
        vector: tuple[int, ...],
        eigs: dict[int, int] | None = None,
    ):
        self.class_set = class_set
        self.vector = vector
        self.eigs = {} if eigs is None else eigs

    def eigenvalue(self, p: int) -> int:
        """Eigenvalue of the degree-p matrix on this line (p prime)."""
        if p not in self.eigs:
            if not is_prime(p):
                raise ValueError(f"eigenvalues are indexed by primes, got {p}")
            v = self.vector
            w = self.class_set.apply(v, p)
            i = next(k for k, x in enumerate(v) if x)
            # w = lam v exactly when every w_j v_i = w_i v_j, lam = w_i / v_i
            if any(x * v[i] != w[i] * y for x, y in zip(w, v)):
                raise MissingEigenvalueError(
                    f"vector is not an eigenvector of the degree-{p} matrix"
                )
            lam, r = divmod(w[i], v[i])
            if r:
                raise IrrationalEigenspaceError(
                    f"non-integral eigenvalue {w[i]}/{v[i]} at {p}"
                )
            self.eigs[p] = lam
        return self.eigs[p]

    def is_cuspidal(self) -> bool:
        return sum(self.vector) == 0


def _refine(class_set: IdealClassSet, signs: dict[int, int] | None) -> list[Eigenform]:
    """Rational simultaneous eigenlines by successive refinement under the
    degree-p matrices, unsorted.

    A block is a list of integer rows, a basis of a subspace that the
    commuting degree matrices keep.  At p it splits into the eigenspaces
    spanned by the rows k block, for k in the integer left kernel of
    block B(p) - lam block, that is with (k block) B(p) = lam (k block),
    one per integer lam.  What lies outside them is discarded: no line
    there has a rational eigenvalue at p.  With `signs`, the pinned primes
    are refined first and only the eigenspace of the pinned eigenvalue is
    kept there.  A finished line computes its eigenvalues from its vector,
    at the primes it was refined at as at every other.
    """
    signs = signs or {}
    H = class_set.h
    pending = [[tuple(int(i == j) for j in range(H)) for i in range(H)]]
    finished: list[list[tuple[int, ...]]] = []

    default_order = sorted(
        set(prime_factors(class_set.level))
        | set(itertools.takewhile(lambda q: q <= PRIME_BOUND, primes()))
    )
    refine_primes = sorted(signs) + [p for p in default_order if p not in signs]
    # one counting pass serves the pinned primes refined first and the
    # ORDER_PRIMES that `_by_small_eigenvalues` asks for afterwards
    class_set.plan(max([*signs, *ORDER_PRIMES]))

    for p in refine_primes:
        if not pending:
            break
        B = class_set.brandt(p)
        if p in signs:
            roots = [signs[p]]
        else:
            # a rational eigenvalue of the integer matrix B is an integer,
            # and B is non-negative, so it is bounded by its largest row sum
            bound = max(sum(row) for row in B)
            roots = range(-bound, bound + 1)
        next_pending = []
        for block in pending:
            T = _product(block, B)
            for lam in roots:
                shifted = [
                    [t - lam * x for t, x in zip(trow, row)] for trow, row in zip(T, block)
                ]
                kernel = _left_kernel(shifted)
                if kernel:
                    child = [combine(block, k) for k in kernel]
                    (finished if len(child) == 1 else next_pending).append(child)
        pending = next_pending

    lines = [Eigenform(class_set, _normalize_primitive(block[0])) for block in finished]
    # a line finished before every pinned prime was reached is checked there
    return [f for f in lines if all(f.eigenvalue(p) == s for p, s in signs.items())]


def _by_small_eigenvalues(lines: list[Eigenform]) -> list[Eigenform]:
    """Deterministic order: by eigenvalue tuple at small primes."""
    return sorted(lines, key=lambda f: tuple(f.eigenvalue(p) for p in ORDER_PRIMES))


def rational_eigenlines(class_set: IdealClassSet) -> list[Eigenform]:
    """All one-dimensional simultaneous rational eigenlines, by successive
    refinement under the degree-p matrices up to `PRIME_BOUND`."""
    return _by_small_eigenvalues(_refine(class_set, None))


def cuspidal_eigenlines(
    class_set: IdealClassSet, signs: dict[int, int] | None = None
) -> list[Eigenform]:
    """The cuspidal lines of `rational_eigenlines`, in the same order.

    `signs` optionally pins the eigenvalue at primes dividing the level
    (+1 at a ramified prime, -1 otherwise); only lines with those
    eigenvalues are then refined and returned.
    """
    lines = _refine(class_set, signs)
    return _by_small_eigenvalues([f for f in lines if f.is_cuspidal()])
