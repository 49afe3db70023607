"""Ternary theta series of trace-zero lattices attached to ideal classes.

For each right order O_i of an ideal class representative, the rank-3
group R_i of trace-zero elements of ℤ + 2O_i carries the restriction of
the quaternion norm form.  Half the representation numbers of that form
are the coefficients of a weight-3/2 theta series; the eigenvector
combination of the class theta series is the half-integral form
attached to the rational eigenline.

R_i is kept as integer rows over a denominator den, and its series is
counted on den^2 times the Gram matrix, an integer matrix: a norm n is
the integer value n den^2 of that form.

The coefficients of R_i at multiples of 4 are those of the smaller
trace-zero part O_i⁰ of O_i itself: r_R(4m) = r_{O⁰}(m).  Proof: R_i is
{2x − trd x : x ∈ O_i} and nrd(2x − trd x) = 4·nrd(x) − trd(x)², so 4
divides the norm exactly when trd x = 2s is even, and then
2x − trd x = 2(x − s) with x − s ∈ O_i⁰; so the vectors of R_i of norm
divisible by 4 are 2·O_i⁰.  `deep_coefficients` counts g's coefficient
at 4m on O_i⁰ up to m, a fourth of the norm bound that R_i would need.
"""

from __future__ import annotations

from .brandt import Eigenform
from .errors import IntegralityError, PrecisionError
from .lattice import Lattice4, Order, count_by_value
from .numth import is_prime, kronecker, squarefree_part
from .qexp import QExpansion
from .quat import QuaternionAlgebra
from .value import Value

__all__ = [
    "TernaryLattice",
    "trace_zero_lattice",
    "trace_zero_part",
    "ternary_theta",
    "kohnen_form",
    "deep_coefficients",
    "hecke_check",
]


class TernaryLattice(Value):
    """Rank-3 lattice of trace-zero quaternions: basis vector r is
    (rows[r][0] + rows[r][1] i + rows[r][2] j + rows[r][3] k) / den.
    Immutable, equal by (alg, den, rows) and hashable."""

    __slots__ = ("alg", "den", "rows")

    def __init__(
        self, alg: QuaternionAlgebra, den: int, rows: tuple[tuple[int, int, int, int], ...]
    ):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)
        for row in rows:
            if row[0] != 0:
                raise ValueError(f"basis vector {row} / {den} has nonzero trace")
        if self._int_det() <= 0:
            raise ValueError("Gram matrix is not positive definite")

    def int_gram(self) -> list[list[int]]:
        """den^2 times the Gram matrix of the norm form on the basis."""
        return [[self.alg.pair(x, y) for y in self.rows] for x in self.rows]

    def _int_det(self) -> int:
        """den^6 times the determinant of the Gram matrix: the determinant
        of `int_gram`."""
        (a, b, c), (d, e, f), (g, h, i) = self.int_gram()
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def trace_zero_lattice(order: Order) -> TernaryLattice:
    """Trace-zero part of ℤ + 2O."""
    lat = order.lattice
    sub = Lattice4.from_int_rows(
        lat.alg, lat.den, [(lat.den, 0, 0, 0)] + [[2 * x for x in row] for row in lat.rows]
    )
    # the Hermite basis is upper triangular and the trace is twice the
    # first coordinate, so the last three rows span the trace-zero part
    return TernaryLattice(sub.alg, sub.den, sub.rows[1:])


def trace_zero_part(order: Order) -> TernaryLattice:
    """O⁰, the trace-zero elements of O: 2·O⁰ is the part of
    `trace_zero_lattice(order)` whose norms are divisible by 4."""
    lat = order.lattice
    # as in `trace_zero_lattice`: the last three Hermite rows
    return TernaryLattice(lat.alg, lat.den, lat.rows[1:])


def ternary_theta(lattice: TernaryLattice, prec: int) -> QExpansion:
    """Theta series of the trace-zero lattice through q^prec.

    Coefficients are half the representation numbers; the constant term
    is dropped, so the result is the cuspidal-side expansion.
    """
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    sq = lattice.den * lattice.den
    coeffs: dict[int, int] = {}
    for value, count in count_by_value(lattice.int_gram(), prec * sq).items():
        if value == 0:
            continue
        n, r = divmod(value, sq)
        if r:
            raise IntegralityError(f"non-integral norm {value}/{sq} on a theta lattice")
        if count % 2:
            raise IntegralityError(f"odd representation count at norm {n}")
        coeffs[n] = count // 2
    return QExpansion(prec, coeffs)


def _combine(eigenform: Eigenform, prec: int, lattice_of) -> dict[int, int]:
    """The eigenvector combination through q^prec of the theta series of
    `lattice_of(O_i)` over the right orders O_i."""
    total: dict[int, int] = {}
    for weight, order in zip(eigenform.vector, eigenform.class_set.rights):
        if not weight:
            continue  # a class of weight 0 adds nothing: skip its theta series
        theta = ternary_theta(lattice_of(order), prec)
        for n, count in theta.coeffs.items():
            total[n] = total.get(n, 0) + weight * count
    return total


def kohnen_form(eigenform: Eigenform, prec: int) -> QExpansion:
    """Eigenvector combination of the class theta series.

    The zero series is a legal output: it signals a vanishing central
    L-value for the newform behind the eigenline.
    """
    return QExpansion(prec, _combine(eigenform, prec, trace_zero_lattice), kohnen=True)


def deep_coefficients(eigenform: Eigenform, prec: int) -> QExpansion:
    """The series m ↦ g_{4m} through q^prec, for g = kohnen_form(eigenform, ·):
    the same combination over the trace-zero parts O_i⁰, since
    r_R(4m) = r_{O⁰}(m) (module docstring)."""
    return QExpansion(prec, _combine(eigenform, prec, trace_zero_part))


def hecke_check(g: QExpansion, eigenform: Eigenform, p: int) -> bool:
    """Verify the degree-p² coefficient recursion on g within precision.

    For every index n coprime to p with np² within precision, the
    coefficient a_{np²} must equal a_n·(b_p − (−n₀/p)) where n₀ is the
    square-free part of n and b_p the eigenline's degree-p eigenvalue.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (4 * eigenform.class_set.level) % p == 0:
        raise ValueError(f"{p} divides 4N")
    nmax = g.prec // (p * p)
    if nmax < 1:
        raise PrecisionError(
            f"precision {g.prec} cannot test the degree-{p}² recursion"
        )
    bp = eigenform.eigenvalue(p)
    for n in range(1, nmax + 1):
        if n % p == 0:
            continue
        n0 = squarefree_part(n)
        if g[n * p * p] != g[n] * (bp - kronecker(-n0, p)):
            return False
    return True
