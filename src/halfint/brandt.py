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
* every row of B(n) sums to `IdealClassSet.row_sum(n)`, the Eisenstein
  eigenvalue at n, and every counted or cached matrix is checked so;
* so every B(n) keeps the cusp hyperplane sum(v) = 0, the complement of
  the Eisenstein line, and the refinement starts there (`_refine`);
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
The class search counts each class (its key) and each right order to
KEY_DEGREE, the largest degree the refinement plans at most levels, and
those counts serve as the pairs (0, j) and (j, j) of every pass up to
that degree, e_j being the right order's count at 1; a deeper pass
counts them on classes[j] and rights[j].lattice, which the class search
has already counted.

Two relations give degrees without counting (Pizer, J. Algebra 64,
1980): B(mk) = B(m) B(k) for coprime m, k, and at a ramified prime q,
B(q) is the permutation I_j -> P I_j of the two-sided prime P over q
(`_atkin_lehner`).  `IdealClassSet.brandt` builds a degree with two or
more primes, or a ramified prime above KEY_DEGREE, from them unless the
counting pass has already reached it; every other degree is counted,
and only those are stored (`IdealClassSet.to_state`).

Classes come only from the search (`ideal_classes`).  A cached state
(`IdealClassSet.from_state`) contributes only its counted prime-power
degree matrices, and only when its classes and unit counts are exactly
the searched ones and each stored degree up to KEY_DEGREE has the
searched counts in row 0 and on the diagonal, so the classes and their
order never depend on a cache file.

Every count comes from the integer kernels (`kernels.count_by_value`,
through `Lattice4.norm_counts`), and the eigenspaces of the refinement
from their elimination `kernels._eigenspace`.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import (
    ComputationError,
    IntegralityError,
    IrrationalEigenspaceError,
    MassMismatchError,
    MissingEigenvalueError,
)
from .kernels import _eigenspace, _normalize_primitive, _product, combine
from .lattice import (
    NEIGHBOR_PRIME,
    Lattice4,
    Order,
    _neighbors,
    right_order_lattice,
    two_sided_prime,
)
from .numth import TRIAL_BOUND, factorize, is_prime, prime_factors, primes

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


def _class_of(J: Lattice4, key, classes, gens, keys) -> int | None:
    """The index of the class of J, a left ideal of the base order with
    key `key` (`_class_key`), among `classes` with left generators `gens`
    and keys `keys`; None when it is none of them.  J is tested for
    equivalence only with the classes of its key."""
    same = [i for i in range(len(classes)) if keys[i] == key]
    if same:
        conj_J = J.conjugate()
        for i in same:
            if _is_principal(_pair_lattice(conj_J, classes[i], gens[i])):
                return i
    return None


class IdealClassSet:
    """The left ideal classes of a definite order, with cached counts."""

    def __init__(
        self,
        order: Order,
        classes: list[Lattice4],
        rights: list[Order],
        gens: list,
        keys: list[dict[int, int]],
        diagonal: list[dict[int, int]],
    ):
        self.order = order
        self.classes = classes
        self.rights = rights
        # unit_counts[j] is e_j, the number of norm-1 units of rights[j]
        self.unit_counts = [counts[1] for counts in diagonal]
        # gens[i] generate classes[i] as a left ideal (`_left_generators`)
        self.gens = gens
        # keys[j] is the key of classes[j] (`_class_key`), and diagonal[j]
        # the counts of rights[j], both counted to KEY_DEGREE by the search
        self.keys = keys
        # raw counts per unordered pair (i <= j), complete up to degree
        # _counted; the pairs (0, j) and (j, j) from the class search
        # (module docstring) are complete up to KEY_DEGREE at least
        self._counts = {(0, j): key for j, key in enumerate(keys)}
        self._counts |= {(j, j): counts for j, counts in enumerate(diagonal)}
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

    def row_sum(self, n: int) -> int:
        """The sum of every row of B(n), n >= 1: the eigenvalue at n of the
        Eisenstein line (all ones), multiplicative in n (Pizer, J. Algebra
        64, 1980), with the factor 1 + p + ... + p^k at p^k || n prime to
        the level N, 1 + 2(p + ... + p^k) at p dividing N/D and 1 at p
        dividing the discriminant D."""
        out = 1
        for p, k in factorize(n).items():
            if p not in self.alg.ramified:
                s = (p ** (k + 1) - 1) // (p - 1)
                out *= 2 * s - 1 if self.level % p == 0 else s
        return out

    def derivable(self, n: int) -> bool:
        """Whether `brandt` builds B(n) from other degrees once the counting
        pass is below n: n has two or more primes, or n is a ramified prime
        above KEY_DEGREE (module docstring)."""
        return len(factorize(n)) > 1 or (n > KEY_DEGREE and n in self.alg.ramified)

    def plan(self, nmax: int) -> None:
        """Make the next counting pass run to degree nmax at least, so that
        one pass over the class pairs serves every degree up to nmax."""
        self._planned = max(self._planned, nmax)

    def _count(self, nmax: int) -> None:
        """Count every unordered pair of classes up to degree nmax.

        The raw counts are symmetric: conj(I_i) I_j is the conjugate lattice
        of conj(I_j) I_i, and conjugation keeps the reduced norm.  Up to
        KEY_DEGREE the pairs (0, j) and (j, j) keep the counts the class
        search made; otherwise they are counted on classes[j] and
        rights[j].lattice, which have the same counts (module docstring).
        Only the pairs 0 < i < j build a lattice.
        """
        classes, rights = self.classes, self.rights
        for j in range(self.h):
            if j > 1:
                conj_j = classes[j].conjugate()
            for i in range(j + 1):
                if nmax <= KEY_DEGREE and (i == 0 or i == j):
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
        """The degree-n matrix (n >= 1), rows indexed by source class: read
        from the counts when the pass has reached n or n is not `derivable`,
        else the product of its prime-power degrees or the permutation
        `_atkin_lehner` finds.

        Raises IntegralityError when a count is not a multiple of its e_j,
        and ComputationError when a row does not sum to `row_sum(n)`."""
        if n < 1:
            raise ValueError("degree must be >= 1")
        if n not in self._matrices and n > self._counted and self.derivable(n):
            if n in self.alg.ramified:
                mat = [tuple(int(k == i) for k in range(self.h)) for i in _atkin_lehner(self, n)]
            else:
                mat = reduce(_product, (self.brandt(p**k) for p, k in factorize(n).items()))
            self._matrices[n] = tuple(mat)
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
            total = self.row_sum(n)
            if {sum(row) for row in rows} != {total}:
                raise ComputationError(f"counted degree-{n} matrix has a row sum other than {total}")
            self._matrices[n] = tuple(rows)
        return self._matrices[n]

    def apply(self, v: Sequence, n: int) -> list:
        """Row action v -> v B(n)."""
        return list(combine(self.brandt(n), v))

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict:
        """The classes, unit counts and every built degree matrix that is
        not `derivable`; `from_state` reads it back."""
        return {
            "classes": [
                {"den": c.den, "rows": [list(r) for r in c.rows]} for c in self.classes
            ],
            "unit_counts": self.unit_counts,
            "brandt": {
                str(n): [list(r) for r in mat]
                for n, mat in sorted(self._matrices.items())
                if not self.derivable(n)
            },
        }

    @classmethod
    def from_state(cls, searched: "IdealClassSet", state: dict) -> "IdealClassSet":
        """`searched` itself (from `ideal_classes`), with the degree matrices
        of `to_state` output attached once they pass every check.

        Raises ValueError when the stored classes or unit counts are not
        those of `searched`, when a stored matrix breaks the row-sum rule
        (`row_sum`) or another invariant of the degree matrices (see
        `_check_degree_matrix`), when a stored degree up to KEY_DEGREE has
        a row 0 or a diagonal other than the counts the search made (module
        docstring), or when two stored degrees do not commute.  A stored
        degree that is `derivable` passes `_check_degree_matrix` and is then
        skipped: `brandt` builds it on every run, and the next `to_state`
        leaves it out.  The stored classes are only compared, never built
        into lattices, and a failed load leaves `searched` as it was.
        """
        expected = searched.to_state()
        if (
            state["classes"] != expected["classes"]
            or state["unit_counts"] != expected["unit_counts"]
        ):
            raise ValueError("cached classes are not the ones the search finds")
        es = searched.unit_counts
        stored = state.get("brandt", {})
        if not isinstance(stored, dict):
            raise ValueError("cached degree matrices are not a JSON object")
        mats = {}
        for n, mat in stored.items():
            n = int(n)
            # bounds n before `derivable` factors it
            _check_degree_matrix(n, mat, searched)
            if searched.derivable(n):
                continue
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


def _check_degree_matrix(n: int, mat, searched: IdealClassSet) -> None:
    """Raise ValueError unless `mat` can be the degree-n matrix of
    `searched`: n from 1 to the trial-division bound (the row-sum rule
    factors n), h x h with non-negative integer entries, symmetric after
    weighting (e_j B_ij = e_i B_ji), and every row summing to
    `searched.row_sum(n)`.

    The rule covers the special degrees too.  A row sum of 1 (n = 1, and
    every n whose primes all divide D) with non-negative integer entries
    leaves a single 1 in each row, so with the symmetry B(n) is the
    permutation matrix of an involution; at n = 1 <= KEY_DEGREE the
    searched diagonal (`from_state`) then forces the identity."""
    es = searched.unit_counts
    h = len(es)
    if not 1 <= n <= TRIAL_BOUND or len(mat) != h or any(len(row) != h for row in mat):
        raise ValueError(f"cached degree-{n} matrix has the wrong degree or shape")
    if any(type(x) is not int or x < 0 for row in mat for x in row):
        raise ValueError(f"cached degree-{n} matrix has an entry that is not a count")
    if not _weighted_symmetric(mat, es):
        raise ValueError(f"cached degree-{n} matrix breaks the weighted symmetry")
    row_sum = searched.row_sum(n)
    if {sum(r) for r in mat} != {row_sum}:
        raise ValueError(f"cached degree-{n} matrix has a row sum other than {row_sum}")


def _atkin_lehner(class_set: IdealClassSet, q: int) -> list[int]:
    """w with P I_j in the class of I_{w[j]}, for the two-sided prime P of
    the base order over q | D (`lattice.two_sided_prime`).  B(q) is the
    permutation matrix with B(q)[j][w[j]] = 1 (Pizer, J. Algebra 64, 1980;
    P P = qO, so w is an involution).  P I_j is a left ideal of the base
    order, found by its key and then by equivalence inside that key's
    bucket (`_class_of`).  Raises ComputationError when no class holds
    some P I_j."""
    P = two_sided_prime(class_set.order, q)
    w = []
    for I in class_set.classes:
        J = P.product(I)
        i = _class_of(J, _class_key(J), class_set.classes, class_set.gens, class_set.keys)
        if i is None:
            raise ComputationError(f"the prime over {q} times a class is in no class")
        w.append(i)
    return w


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
    # keys[j] is the key of classes[j], and diagonal[j][1] the unit count
    # of rights[j]; I_0 = O is its own right order
    keys = [_class_key(order.lattice)]
    diagonal = keys[:]
    gens = [_left_generators(order, order.lattice)]
    rights = [order]
    num, den = _unit_mass([counts[1] for counts in diagonal])
    # (class, the class it was found as a neighbour of)
    frontier = [(0, None)]
    while 12 * num < twelfths * den and frontier:
        idx, parent = frontier.pop(0)
        back = None if parent is None else classes[parent].scale(NEIGHBOR_PRIME)
        for J in _neighbors(classes[idx], rights[idx]):
            if J == back:
                continue
            key = _class_key(J)
            if _class_of(J, key, classes, gens, keys) is not None:
                continue
            frontier.append((len(classes), idx))
            classes.append(J)
            keys.append(key)
            gens.append(_left_generators(order, J))
            right = right_order_lattice(J)
            diagonal.append(right.norm_counts(KEY_DEGREE))
            rights.append(Order(right))
            num, den = _unit_mass([counts[1] for counts in diagonal])
            if 12 * num >= twelfths * den:
                break
    if 12 * num != twelfths * den:
        raise MassMismatchError(
            f"class search ended with mass {_ratio_text(num, den)}, "
            f"expected {_ratio_text(twelfths, 12)}"
        )
    return IdealClassSet(order, classes, rights, gens, keys, diagonal)


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


def _refine(class_set: IdealClassSet, pins: dict[int, tuple] | None) -> list[Eigenform]:
    """Rational simultaneous cuspidal eigenlines by successive refinement
    under the degree-p matrices, unsorted.

    A block is a list of integer rows, a basis of a subspace that the
    commuting degree matrices keep.  The first block is the cusp
    hyperplane sum(v) = 0, spanned by the rows e_i - e_{H-1}: every B(n)
    keeps it, because every row of B(n) sums to `row_sum(n)`, and it is
    the complement of the Eisenstein line (H = 1 leaves no block).  At p
    a block splits into the eigenspaces spanned by the rows k block with
    (k block) B(p) = lam (k block), one per integer lam in a bound
    (`_eigenspace`); what lies outside them is discarded, since no line
    there has a rational eigenvalue at p.  At a prime p not dividing the
    level the eigenvalue is a_p of a weight-2 cusp form, so |lam| <=
    isqrt(4p) (Hasse; Eichler-Shimura, and Pizer, J. Algebra 64, 1980).
    At a level prime a p-old line reaches a_p + p w_p, so there the bound
    is `row_sum(p)`, which bounds every eigenvalue of the non-negative
    B(p).  The primes dividing the level are refined first, then the
    other primes up to PRIME_BOUND, each in increasing order.  `pins`
    maps primes to the tuples of eigenvalues a line may have there: at a
    pinned prime only their eigenspaces are kept, in the tuple's order.
    A block's children depend only on that block, so a pin only drops
    subtrees, and the lines returned are exactly the unpinned ones with
    admissible eigenvalues, in the same relative order.  A finished line
    computes its eigenvalues from its vector, at the primes it was
    refined at as at every other.
    """
    pins = pins or {}
    H = class_set.h
    cusp = [tuple(int(j == i) - int(j == H - 1) for j in range(H)) for i in range(H - 1)]
    pending = [cusp] if cusp else []
    finished: list[list[tuple[int, ...]]] = []

    bad = prime_factors(class_set.level)
    good = itertools.takewhile(lambda q: q <= PRIME_BOUND, primes())
    # one counting pass serves the pinned primes and the ORDER_PRIMES that
    # `_by_small_eigenvalues` asks for afterwards; a derivable pin needs none
    class_set.plan(max([*(p for p in pins if not class_set.derivable(p)), *ORDER_PRIMES]))

    for p in [*bad, *(q for q in good if q not in bad)]:
        if not pending:
            break
        B = class_set.brandt(p)
        if p in pins:
            roots = pins[p]
        else:
            # a rational eigenvalue of the integer matrix B is an integer
            bound = class_set.row_sum(p) if p in bad else isqrt(4 * p)
            roots = range(-bound, bound + 1)
        next_pending = []
        for block in pending:
            T = _product(block, B)
            for lam in roots:
                child = _eigenspace(T, block, lam)
                if child:
                    (finished if len(child) == 1 else next_pending).append(child)
        pending = next_pending

    lines = [Eigenform(class_set, _normalize_primitive(block[0])) for block in finished]
    # a line finished before every pinned prime was reached is checked there
    return [f for f in lines if all(f.eigenvalue(p) in vs for p, vs in pins.items())]


def _by_small_eigenvalues(lines: list[Eigenform]) -> list[Eigenform]:
    """Deterministic order: by eigenvalue tuple at small primes."""
    return sorted(lines, key=lambda f: tuple(f.eigenvalue(p) for p in ORDER_PRIMES))


def cuspidal_eigenlines(
    class_set: IdealClassSet, pins: dict[int, tuple[int, ...]] | None = None
) -> list[Eigenform]:
    """The one-dimensional simultaneous rational eigenlines of the class
    set that are cuspidal, found by successive refinement of the cusp
    hyperplane under the degree-p matrices up to `PRIME_BOUND`
    (`_refine`) and ordered by their eigenvalues at ORDER_PRIMES.

    `pins` optionally maps primes to the tuples of eigenvalues the lines
    may have there; only lines with admissible eigenvalues are then
    refined and returned.
    """
    return _by_small_eigenvalues(_refine(class_set, pins))


def matching_eigenline(line: Eigenform, class_set: IdealClassSet) -> Eigenform:
    """The cuspidal line of `class_set` (of the same level) that carries the
    eigenvalues of `line`: refined with `line`'s eigenvalues pinned at the
    primes of the level and at ORDER_PRIMES, which both class sets have
    counted, then compared at the next primes up to PRIME_BOUND only while
    more than one line is left.  Raises ComputationError unless exactly
    one line is left."""
    pins = {p: (line.eigenvalue(p),) for p in (*prime_factors(class_set.level), *ORDER_PRIMES)}
    matches = cuspidal_eigenlines(class_set, pins)
    # the pinned primes compare equal already
    for p in itertools.takewhile(lambda p: p <= PRIME_BOUND, primes()):
        if len(matches) <= 1:
            break
        matches = [m for m in matches if m.eigenvalue(p) == line.eigenvalue(p)]
    if len(matches) != 1:
        raise ComputationError(
            f"{len(matches)} eigenlines of the algebra ramified at "
            f"{','.join(map(str, class_set.alg.ramified))} match the selected newform"
        )
    return matches[0]
