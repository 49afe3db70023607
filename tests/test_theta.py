"""Tests for trace-zero lattices and their theta series."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import halfint.theta as theta_module
from halfint.brandt import Eigenform, cuspidal_eigenlines, ideal_classes
from halfint.errors import PrecisionError
from halfint.lattice import Lattice4, Order, eichler_order
from halfint.lift import LiftProfile
from halfint.qexp import QExpansion
from halfint.quat import QuaternionAlgebra, algebra_ramified_at, conj, trd
from halfint.cli import _odd_subsets
from halfint.numth import prime_factors
from halfint.theta import (
    TernaryLattice,
    deep_coefficients,
    hecke_check,
    kohnen_form,
    ternary_theta,
    trace_zero_lattice,
    trace_zero_part,
)
from oracles import basis, from_vectors, qelt, qscale

# coefficients of the two class theta series at level 15 through q^95,
# halved counts, constant term dropped; the principal class comes first
# in our enumeration order
LEVEL15_THETA_PRINCIPAL = {
    8: 2, 12: 1, 15: 1, 20: 1, 23: 4, 27: 2, 32: 4, 35: 2, 47: 8,
    48: 3, 60: 1, 63: 6, 68: 6, 72: 4, 80: 5, 83: 4, 87: 4, 92: 10, 95: 6,
}
LEVEL15_THETA_OTHER = {
    3: 1, 12: 1, 20: 3, 23: 6, 27: 1, 32: 6, 47: 6, 48: 1, 60: 3,
    63: 6, 68: 6, 72: 6, 75: 1, 80: 3, 83: 6, 87: 6, 92: 6, 95: 6,
}
LEVEL15_G = {
    3: 1, 8: -2, 15: -1, 20: 2, 23: 2, 27: -1, 32: 2, 35: -2, 47: -2,
    48: -2, 60: 2, 72: 2, 75: 1, 80: -2, 83: 2, 87: 2, 92: -4,
}


@pytest.fixture(scope="module")
def level15():
    alg = algebra_ramified_at([5])
    return ideal_classes(eichler_order(alg, 15))


@pytest.fixture(scope="module")
def level11():
    alg = algebra_ramified_at([11])
    return ideal_classes(eichler_order(alg, 11))


def test_trace_zero_basis(level15):
    for order in level15.rights:
        R = trace_zero_lattice(order)
        assert len(R.rows) == 3
        for v in R.rows:
            assert trd(v) == 0


def test_value_semantics(level15):
    # equal fields give equal objects with equal hashes, within one class
    # only, and the immutable classes refuse assignment to a field
    R = trace_zero_lattice(level15.rights[1])
    twin = TernaryLattice(R.alg, R.den, R.rows)
    assert twin == R and hash(twin) == hash(R)
    alg = QuaternionAlgebra(R.alg.a, R.alg.b)
    assert alg == R.alg and hash(alg) == hash(R.alg)
    assert Lattice4(R.alg, R.den, R.rows) != R and R != Lattice4(R.alg, R.den, R.rows)
    # a lattice that has been counted equals and hashes like a fresh one,
    # and still refuses assignment
    counted = level15.classes[1]
    counted.norm_counts(3)
    fresh = Lattice4(counted.alg, counted.den, counted.rows)
    assert fresh == counted and hash(fresh) == hash(counted)
    profile = LiftProfile(15, {2: 0, 3: -1, 5: 1})
    assert profile == LiftProfile(15, {2: 0, 3: -1, 5: 1})
    assert profile != LiftProfile(15, {2: 1, 3: -1, 5: 1})
    series = QExpansion(4, {3: 1})
    # an order is equal and hashes by its lattice alone
    order = level15.rights[1]
    assert Order(order.lattice) == order and hash(order) == hash(order.lattice)
    assert order != level15.rights[0] and order != order.lattice
    frozen = [
        (alg, "a"),
        (counted, "rows"),
        (R, "den"),
        (series, "coeffs"),
        (profile, "eigen"),
        (order, "lattice"),
    ]
    for obj, name in frozen:
        cls = type(obj).__name__
        with pytest.raises(AttributeError, match=f"^{cls} is immutable: cannot set '{name}'$"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"^{cls} is immutable: cannot delete '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is not None
    # the two holding a dict are unhashable, by declaration
    for obj in (series, profile):
        assert type(obj).__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    # and the dict is a read-only copy: no write reaches a validated series,
    # and no later write to the caller's dict reaches a profile
    plus = QExpansion(10, {3: 1}, kohnen=True)
    with pytest.raises(TypeError):
        plus.coeffs[1] = 5
    assert plus.coeffs == {3: 1}
    eigen = {2: 0, 3: -1, 5: 1}
    profile = LiftProfile(15, eigen)
    eigen[3] = 7
    assert profile.eigenvalue(3) == -1
    with pytest.raises(TypeError):
        profile.eigen[3] = 7


def test_value_dunders_are_written_once():
    # the immutable classes derive from value.Value, the one place that
    # defines assignment, deletion, equality and hashing; only the two
    # holding a dict opt out of hashing, and Order keeps no repr of its own
    src = Path(theta_module.__file__).parent
    dunders = {"__setattr__", "__delattr__", "__eq__", "__hash__"}

    def defined(path, class_name):
        tree = ast.parse((src / path).read_text())
        (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
        names = {}
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                names[stmt.name] = "def"
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    names[ast.unparse(target)] = ast.unparse(stmt.value)
        bases = [ast.unparse(b) for b in node.bases]
        return bases, {k: v for k, v in names.items() if k in dunders}

    assert defined("value.py", "Value") == ([], dict.fromkeys(dunders, "def"))
    for path, class_name in (
        ("quat.py", "QuaternionAlgebra"),
        ("lattice.py", "Lattice4"),
        ("theta.py", "TernaryLattice"),
        ("qexp.py", "QExpansion"),
        ("lift.py", "LiftProfile"),
        ("lattice.py", "Order"),
    ):
        unhashable = class_name in ("QExpansion", "LiftProfile")
        expected = {"__hash__": "None"} if unhashable else {}
        assert defined(path, class_name) == (["Value"], expected), class_name
    assert "__repr__" not in vars(Order)


def test_gram_determinant_shape(level15, level11):
    # det = (2N)^2 times the square of a rational
    from math import isqrt

    for C, N in ((level15, 15), (level11, 11)):
        for order in C.rights:
            R = trace_zero_lattice(order)
            ratio = Fraction(R._int_det(), R.den**6 * (2 * N) ** 2)
            assert ratio > 0
            num, den = ratio.numerator, ratio.denominator
            assert isqrt(num) ** 2 == num
            assert isqrt(den) ** 2 == den


def test_level15_class_thetas(level15):
    th0 = ternary_theta(trace_zero_lattice(level15.rights[0]), 95)
    th1 = ternary_theta(trace_zero_lattice(level15.rights[1]), 95)
    assert {n: int(v) for n, v in th0.coeffs.items()} == LEVEL15_THETA_PRINCIPAL
    assert {n: int(v) for n, v in th1.coeffs.items()} == LEVEL15_THETA_OTHER


def test_theta_support_mod4(level15, level11):
    for C in (level15, level11):
        for order in C.rights:
            th = ternary_theta(trace_zero_lattice(order), 80)
            assert all(n % 4 in (0, 3) for n in th.support())


def test_theta_zero_precision(level15):
    th = ternary_theta(trace_zero_lattice(level15.rights[0]), 0)
    assert th.prec == 0 and not th


def test_theta_conjugation_invariant(level15):
    # conjugate orders carry isometric trace-zero lattices
    order = level15.rights[1]
    alg = order.lattice.alg
    x = qelt(1, 1, 0, 0)
    xinv = qscale(1 / alg.nrd(x), conj(x))
    twisted = Order(
        from_vectors(alg, [alg.mul(alg.mul(xinv, b), x) for b in basis(order.lattice)])
    )
    a = ternary_theta(trace_zero_lattice(order), 60)
    b = ternary_theta(trace_zero_lattice(twisted), 60)
    assert a == b


@pytest.mark.parametrize("level", [11, 15, 21, 33, 35, 37, 57, 67, 105, 231, 285])
def test_theta_at_4m_counts_the_trace_zero_part(level):
    # nrd(2x − trd x) = 4·nrd(x) − trd(x)², so the norms of R are 0 or 3
    # mod 4, and its vectors of norm 4m are twice those of O⁰ of norm m
    for ramified in _odd_subsets(prime_factors(level)):
        C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
        for order in C.rights:
            R = ternary_theta(trace_zero_lattice(order), 1200)
            assert all(n % 4 in (0, 3) for n in R.support())
            part = ternary_theta(trace_zero_part(order), 300)
            assert {m: R[4 * m] for m in range(1, 301) if R[4 * m]} == part.coeffs


def test_deep_coefficients_are_g_at_4m(level15, level11):
    for C in (level15, level11):
        for line in cuspidal_eigenlines(C):
            g = kohnen_form(line, 400)
            g4 = deep_coefficients(line, 100)
            assert g4.coeffs == {m: g[4 * m] for m in range(1, 101) if g[4 * m]}
            assert g4.prec == 100 and not g4.kohnen


def test_level15_kohnen_form(level15):
    f = cuspidal_eigenlines(level15)[0]
    g = kohnen_form(f, 95).sign_normalized()
    assert g.coeffs == LEVEL15_G
    assert g.kohnen
    assert all(type(v) is int for v in g.coeffs.values())


def test_kohnen_form_a68_vanishes(level15):
    f = cuspidal_eigenlines(level15)[0]
    g = kohnen_form(f, 70)
    assert g[68] == 0


def test_class_swap_flips_sign_only(level15):
    f = cuspidal_eigenlines(level15)[0]
    g = kohnen_form(f, 60)
    swapped = Eigenform(
        class_set=level15, vector=tuple(reversed(f.vector)), eigs=dict(f.eigs)
    )
    g_swapped = QExpansion(60, {})
    for w, order in zip(swapped.vector, reversed(level15.rights)):
        g_swapped = g_swapped + ternary_theta(trace_zero_lattice(order), 60).scale(w)
    assert g_swapped.coeffs == g.coeffs
    flipped = Eigenform(class_set=level15, vector=(-1, 1), eigs={})
    assert kohnen_form(flipped, 60) == g.scale(-1)
    assert kohnen_form(flipped, 60).sign_normalized() == g.sign_normalized()


def test_zero_vector_gives_zero_series(level15):
    z = Eigenform(class_set=level15, vector=(0, 0), eigs={})
    assert not kohnen_form(z, 40)


def test_kohnen_form_skips_classes_of_weight_zero(monkeypatch):
    # the N=67 line weights two of its six classes by 0; their theta
    # series add nothing, so only the other four are enumerated
    alg = algebra_ramified_at([67])
    line = cuspidal_eigenlines(ideal_classes(eichler_order(alg, 67)), signs={67: 1})[0]
    assert line.vector == (1, 1, 0, 0, -1, -1)
    full = QExpansion(80, {})
    for weight, order in zip(line.vector, line.class_set.rights):
        full = full + ternary_theta(trace_zero_lattice(order), 80).scale(weight)
    calls = []

    def counted(lattice, prec):
        calls.append(lattice)
        return ternary_theta(lattice, prec)

    monkeypatch.setattr(theta_module, "ternary_theta", counted)
    g = kohnen_form(line, 80)
    assert len(calls) == 4
    assert g.coeffs == full.coeffs and g


def test_hecke_check_level15(level15):
    f = cuspidal_eigenlines(level15)[0]
    g = kohnen_form(f, 150).sign_normalized()
    assert g[147] == -1
    assert hecke_check(g, f, 7)
    broken = QExpansion(150, dict(g.coeffs) | {147: 5})
    assert not hecke_check(broken, f, 7)


def test_hecke_check_level11(level11):
    f = cuspidal_eigenlines(level11)[0]
    g = kohnen_form(f, 45)
    assert hecke_check(g, f, 3)


def test_hecke_check_errors(level15):
    f = cuspidal_eigenlines(level15)[0]
    g = kohnen_form(f, 40)
    with pytest.raises(PrecisionError):
        hecke_check(g, f, 7)
    with pytest.raises(ValueError):
        hecke_check(g, f, 5)
    with pytest.raises(ValueError):
        hecke_check(g, f, 6)
