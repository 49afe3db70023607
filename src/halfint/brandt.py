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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import (
    IntegralityError,
    IrrationalEigenspaceError,
    MassMismatchError,
    MissingEigenvalueError,
)
from .lattice import Lattice4, Order, right_order_lattice
from .numth import is_prime, prime_factors, primes
from .quat import Quat, conj, qelt, qscale

# deterministic neighbor prime: levels are odd and ramification sets
# consist of odd primes, so 2 always splits and is prime to the level
NEIGHBOR_PRIME = 2


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


def eichler_mass(D: int, N: int) -> Fraction:
    """Mass of the class set for an order of level N and ramification D."""
    return Fraction(_phi(D) * _psi(N // D), 12)


# ---------------------------------------------------------------------------
# ideal classes
# ---------------------------------------------------------------------------


def _combine(basis: Sequence[Quat], coeffs: Sequence[int]) -> Quat:
    v = qelt()
    for c, b in zip(coeffs, basis):
        if c:
            v = tuple(x + c * y for x, y in zip(v, b))
    return v


def _neighbors(ideal: Lattice4, right: Order, p: int = NEIGHBOR_PRIME) -> Iterator[Lattice4]:
    """Distinct index-p^2 subideals I x + p I over rank-one residues x of
    the right order mod p (the p+1 neighbors in the Brandt graph)."""
    alg = ideal.alg
    rbas = right.basis()
    ibas = ideal.basis()
    seen = set()
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs):
            continue
        x = _combine(rbas, coeffs)
        nx = alg.nrd(x)
        if nx.denominator != 1 or int(nx) % p:
            continue  # invertible residue: J would be all of I
        J = Lattice4.from_vectors(
            alg, [alg.mul(b, x) for b in ibas] + [qscale(p, b) for b in ibas]
        )
        if ideal.index_over(J) != p * p:
            continue  # x vanished mod p against this ideal
        key = (J.den, J.rows)
        if key in seen:
            continue
        seen.add(key)
        yield J


def _is_principal(lat: Lattice4) -> bool:
    """Whether the norm form on the lattice represents its content."""
    content = lat.norm_content()
    counts = lat.norm_counts(1, scale=content)
    return counts.get(1, 0) > 0


def equivalent_ideals(I: Lattice4, J: Lattice4) -> bool:
    """Left ideals are isomorphic iff conj(I) J is principal."""
    return _is_principal(I.conjugate().product(J))


class IdealClassSet:
    """The left ideal classes of a definite order, with cached counts."""

    def __init__(self, order: Order, classes: list[Lattice4], rights: list[Order]):
        self.order = order
        self.classes = classes
        self.rights = rights
        # raw counts per unordered pair (i <= j), complete up to degree _counted
        self._counts: dict[tuple[int, int], dict[int, int]] = {}
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
    def unit_counts(self) -> list[int]:
        return [r.unit_count for r in self.rights]

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(2, e) for e in self.unit_counts), Fraction(0))

    def height(self, v: Sequence, w: Sequence) -> Fraction:
        """Natural inner product sum v_i w_i e_i / 2."""
        return sum(
            Fraction(x) * Fraction(y) * Fraction(e, 2)
            for x, y, e in zip(v, w, self.unit_counts)
        )

    # -- degree matrices -----------------------------------------------------

    def plan(self, nmax: int) -> None:
        """Make the next counting pass run to degree nmax at least, so that
        one pass over the class pairs serves every degree up to nmax."""
        self._planned = max(self._planned, nmax)

    def _count(self, nmax: int) -> None:
        """Count every unordered pair of classes up to degree nmax.

        The raw counts are symmetric: conj(I_i) I_j is the conjugate lattice
        of conj(I_j) I_i, and conjugation keeps the reduced norm.
        """
        for j in range(self.h):
            conj_j = self.classes[j].conjugate()
            for i in range(j + 1):
                P = conj_j.product(self.classes[i])
                self._counts[i, j] = P.norm_counts(nmax, scale=P.norm_content())
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
        B = self.brandt(n)
        H = self.h
        return [sum(Fraction(v[i]) * B[i][j] for i in range(H)) for j in range(H)]

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
    def from_state(cls, order: Order, state: dict) -> "IdealClassSet":
        alg = order.alg
        classes = [
            Lattice4(alg, int(c["den"]), tuple(tuple(int(x) for x in r) for r in c["rows"]))
            for c in state["classes"]
        ]
        rights = [Order(right_order_lattice(c)) for c in classes]
        for r, e in zip(rights, state["unit_counts"]):
            if r.unit_count != int(e):
                raise IntegralityError("cached unit counts disagree with lattices")
        out = cls(order, classes, rights)
        for n, mat in state.get("brandt", {}).items():
            out._matrices[int(n)] = tuple(tuple(int(x) for x in row) for row in mat)
        return out


def ideal_classes(order: Order) -> IdealClassSet:
    """Breadth-first enumeration of the left ideal classes, terminated by
    the exact mass count."""
    target = eichler_mass(order.alg.discriminant, order.reduced_discriminant)
    classes = [order.lattice]
    rights = [order]
    mass = Fraction(2, order.unit_count)
    frontier = [0]
    while mass < target and frontier:
        idx = frontier.pop(0)
        for J in _neighbors(classes[idx], rights[idx]):
            if any(equivalent_ideals(J, C) for C in classes):
                continue
            classes.append(J)
            rights.append(Order(right_order_lattice(J)))
            mass += Fraction(2, rights[-1].unit_count)
            frontier.append(len(classes) - 1)
            if mass >= target:
                break
    if mass != target:
        raise MassMismatchError(
            f"class search ended with mass {mass}, expected {target}"
        )
    return IdealClassSet(order, classes, rights)


# ---------------------------------------------------------------------------
# exact linear algebra for the eigen decomposition (row convention)
# ---------------------------------------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    mat = [list(r) for r in rows]
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


def _left_kernel(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {v : v M = 0} for a square Fraction matrix."""
    n = len(M)
    At = [[Fraction(M[j][i]) for j in range(n)] for i in range(n)]
    rref, pivots = _rref(At)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(v)
    return basis


def _solve_row(S: list[list[Fraction]], t: list[Fraction]) -> list[Fraction]:
    """Solve x S = t for x, S full row rank (d x H)."""
    d, H = len(S), len(S[0])
    aug = [[S[r][c] for r in range(d)] + [t[c]] for c in range(H)]
    rref, pivots = _rref(aug)
    x = [Fraction(0)] * d
    for row, c in zip(rref, pivots):
        if c == d:
            raise IrrationalEigenspaceError("vector not in the invariant subspace")
        x[c] = row[d]
    # consistency: any non-pivot rows must have vanished entirely
    return x


def _charpoly(M: list[list[Fraction]]) -> list[Fraction]:
    """Monic characteristic polynomial, coefficients descending, by the
    trace method (Faddeev-LeVerrier)."""
    n = len(M)
    coeffs = [Fraction(1)]
    Mk = [[Fraction(x) for x in row] for row in M]
    A = Mk
    for k in range(1, n + 1):
        tr = sum(A[i][i] for i in range(n))
        c = -tr / k
        coeffs.append(c)
        if k == n:
            break
        # A <- M (A + c I)
        B = [[A[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        A = [
            [sum(Mk[i][t] * B[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def _rational_roots(poly: list[Fraction]) -> list[Fraction]:
    """Distinct rational roots of a monic Fraction polynomial."""
    den = 1
    for c in poly:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in poly]  # leading coeff den > 0
    # strip zero roots
    roots = set()
    while ints[-1] == 0:
        roots.add(Fraction(0))
        ints.pop()
        if len(ints) == 1:
            return sorted(roots)
    lead, const = ints[0], ints[-1]

    def _divs(m: int) -> list[int]:
        m = abs(m)
        out = set()
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.add(d)
                out.add(m // d)
            d += 1
        return sorted(out)

    def _eval(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in ints:
            acc = acc * x + c
        return acc

    for p in _divs(const):
        for q in _divs(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and _eval(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _normalize_primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale to primitive integers with positive first nonzero entry."""
    den = 1
    for x in vec:
        x = Fraction(x)
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector cannot be normalized")
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# simultaneous rational eigenlines
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    rows: list[list[Fraction]]  # basis of the invariant subspace, row vectors
    eigs: dict[int, Fraction]


@dataclass
class Eigenform:
    """A rational simultaneous eigenline of the degree matrices."""

    class_set: IdealClassSet
    vector: tuple[int, ...]
    eigs: dict[int, int] = field(default_factory=dict)

    def eigenvalue(self, p: int) -> int:
        """Eigenvalue of the degree-p matrix on this line (p prime)."""
        if p not in self.eigs:
            if not is_prime(p):
                raise ValueError(f"eigenvalues are indexed by primes, got {p}")
            w = self.class_set.apply(self.vector, p)
            i = next(k for k, x in enumerate(self.vector) if x)
            lam = Fraction(w[i], self.vector[i])
            if any(Fraction(x) != lam * v for x, v in zip(w, self.vector)):
                raise MissingEigenvalueError(
                    f"vector is not an eigenvector of the degree-{p} matrix"
                )
            if lam.denominator != 1:
                raise IrrationalEigenspaceError(
                    f"non-integral eigenvalue {lam} at {p}"
                )
            self.eigs[p] = int(lam)
        return self.eigs[p]

    def bad_sign(self, p: int) -> int:
        """Eigenvalue at a prime dividing the level; must be +-1."""
        lam = self.eigenvalue(p)
        if lam not in (1, -1):
            raise IrrationalEigenspaceError(
                f"degree-{p} eigenvalue {lam} at a level prime is not a sign"
            )
        return lam

    def involution_sign(self, p: int) -> int:
        """Sign of the level involution at p | N: opposite of the degree
        eigenvalue."""
        return -self.bad_sign(p)

    def is_cuspidal(self) -> bool:
        return sum(self.vector) == 0


def _refine(
    class_set: IdealClassSet, prime_bound: int, signs: dict[int, int] | None
) -> list[Eigenform]:
    """Rational simultaneous eigenlines by successive refinement under the
    degree-p matrices, unsorted.

    Blocks whose restricted operator acquires an irreducible factor are
    discarded: no line inside them can have a rational eigenvalue at that
    prime, hence none is a rational simultaneous eigenline.  With `signs`,
    the pinned primes are refined first and only the eigenspace of the
    pinned eigenvalue is kept there.
    """
    signs = signs or {}
    H = class_set.h
    eye = [[Fraction(int(i == j)) for j in range(H)] for i in range(H)]
    pending = [_Block(eye, {})]
    finished: list[_Block] = []

    default_order = sorted(
        set(prime_factors(class_set.level))
        | set(itertools.takewhile(lambda q: q <= prime_bound, primes()))
    )
    refine_primes = sorted(signs) + [p for p in default_order if p not in signs]
    if signs:
        # one counting pass serves all the pinned primes refined first
        class_set.plan(max(signs))

    for p in refine_primes:
        if not pending:
            break
        B = class_set.brandt(p)
        Bf = [[Fraction(x) for x in row] for row in B]
        next_pending: list[_Block] = []
        for block in pending:
            d = len(block.rows)
            # restricted operator R with (rows) B = R (rows)
            T = [
                [
                    sum(block.rows[r][i] * Bf[i][j] for i in range(H))
                    for j in range(H)
                ]
                for r in range(d)
            ]
            R = [_solve_row(block.rows, t) for t in T]
            if p in signs:
                roots = [Fraction(signs[p])]
            else:
                roots = _rational_roots(_charpoly(R))
            for lam in roots:
                shifted = [
                    [R[i][j] - (lam if i == j else 0) for j in range(d)]
                    for i in range(d)
                ]
                kernel = _left_kernel(shifted)
                if not kernel:
                    continue
                rows = [
                    [
                        sum(k[r] * block.rows[r][i] for r in range(d))
                        for i in range(H)
                    ]
                    for k in kernel
                ]
                child = _Block(rows, dict(block.eigs) | {p: lam})
                if len(rows) == 1:
                    finished.append(child)
                else:
                    next_pending.append(child)
            # anything outside the rational kernels is dead for our purpose
        pending = next_pending

    lines = []
    for block in finished:
        vec = _normalize_primitive(block.rows[0])
        eigs = {}
        for p, lam in block.eigs.items():
            if lam.denominator != 1:
                raise IrrationalEigenspaceError(f"fractional eigenvalue {lam}")
            eigs[p] = int(lam)
        lines.append(Eigenform(class_set, vec, eigs))
    # a line finished before every pinned prime was reached is checked there
    return [f for f in lines if all(f.eigenvalue(p) == s for p, s in signs.items())]


def _by_small_eigenvalues(lines: list[Eigenform]) -> list[Eigenform]:
    """Deterministic order: by eigenvalue tuple at small primes."""
    order_primes = [2, 3, 5, 7, 11, 13]
    return sorted(lines, key=lambda f: tuple(f.eigenvalue(p) for p in order_primes))


def rational_eigenlines(
    class_set: IdealClassSet, prime_bound: int = 60
) -> list[Eigenform]:
    """All one-dimensional simultaneous rational eigenlines, by successive
    refinement under the degree-p matrices up to `prime_bound`."""
    return _by_small_eigenvalues(_refine(class_set, prime_bound, None))


def cuspidal_eigenlines(
    class_set: IdealClassSet,
    prime_bound: int = 60,
    signs: dict[int, int] | None = None,
) -> list[Eigenform]:
    """The cuspidal lines of `rational_eigenlines`, in the same order.

    `signs` optionally pins the eigenvalue at primes dividing the level
    (+1 at a ramified prime, -1 otherwise); only lines with those
    eigenvalues are then refined and returned.
    """
    lines = _refine(class_set, prime_bound, signs)
    return _by_small_eigenvalues([f for f in lines if f.is_cuspidal()])
