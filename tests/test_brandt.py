"""Tests for ideal classes, degree matrices, and rational eigenlines."""

from fractions import Fraction

import pytest

import oracles
from halfint.brandt import (
    Eigenform,
    IdealClassSet,
    cuspidal_eigenlines,
    eichler_mass,
    equivalent_ideals,
    ideal_classes,
    rational_eigenlines,
    _neighbors,
)
from halfint.errors import IrrationalEigenspaceError
from halfint.lattice import Lattice4, eichler_order
from halfint.quat import QuaternionAlgebra, algebra_ramified_at


@pytest.fixture(scope="module")
def level15():
    alg = algebra_ramified_at([5])
    E = eichler_order(alg, 15)
    return ideal_classes(E)


@pytest.fixture(scope="module")
def level11():
    alg = algebra_ramified_at([11])
    E = eichler_order(alg, 11)
    return ideal_classes(E)


@pytest.fixture(scope="module")
def level33():
    alg = algebra_ramified_at([11])
    E = eichler_order(alg, 33)
    return ideal_classes(E)


# ---------------------------------------------------------------------------
# class sets
# ---------------------------------------------------------------------------


def test_level15_class_data(level15):
    C = level15
    assert C.h == 2
    assert C.mass == Fraction(4, 3)
    assert C.unit_counts == [2, 6]
    assert C.level == 15


def test_level11_class_data(level11):
    C = level11
    assert C.h == 2
    assert C.mass == Fraction(5, 6)
    assert sorted(C.unit_counts) == [4, 6]


def test_mass_formula():
    assert eichler_mass(5, 15) == Fraction(4, 3)
    assert eichler_mass(11, 11) == Fraction(5, 6)
    assert eichler_mass(37, 37) == 3
    assert eichler_mass(11, 33) == Fraction(10, 3)


def test_neighbors_structure(level15):
    C = level15
    neigh = list(_neighbors(C.classes[0], C.rights[0]))
    # the degree-2 graph is 3-regular
    assert len(neigh) == 3
    for J in neigh:
        assert C.classes[0].index_over(J) == 4
        assert C.order.lattice.contains_lattice(J)


def test_equivalence_relation(level15):
    C = level15
    from halfint.quat import qelt

    alg = C.alg
    I = C.classes[0]
    # a principal twist stays equivalent
    x = qelt(1, 1, 1, 0)
    Ix = Lattice4.from_vectors(alg, [alg.mul(b, x) for b in I.basis()])
    assert equivalent_ideals(I, Ix)
    assert equivalent_ideals(Ix, I)
    # distinct classes are not equivalent
    assert not equivalent_ideals(C.classes[0], C.classes[1])


# ---------------------------------------------------------------------------
# degree matrices
# ---------------------------------------------------------------------------


def test_level15_degree_matrices(level15):
    C = level15
    assert C.brandt(1) == ((1, 0), (0, 1))
    assert C.brandt(2) == ((2, 1), (3, 0))
    # the ramified prime gives a permutation
    assert C.brandt(5) == ((1, 0), (0, 1))


def test_row_sums_good_primes(level15, level11):
    for C, N in ((level15, 15), (level11, 11)):
        good = [p for p in (2, 3, 5, 7, 11, 13) if N % p][:3]
        for p in good:
            B = C.brandt(p)
            for row in B:
                assert sum(row) == p + 1, (N, p)


def test_degree_matrices_commute(level15, level11):
    def matmul(A, B):
        n = len(A)
        return [
            [sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for C in (level15, level11):
        mats = [C.brandt(n) for n in (2, 3, 5, 7)]
        for A in mats:
            for B in mats:
                assert matmul(A, B) == matmul(B, A)


def test_height_symmetry(level15, level33):
    # e_j B(n)_ij = e_i B(n)_ji: self-adjointness for the height pairing
    for C in (level15, level33):
        es = C.unit_counts
        for n in (2, 3, 7, 10):
            B = C.brandt(n)
            for i in range(C.h):
                for j in range(C.h):
                    assert es[j] * B[i][j] == es[i] * B[j][i]


def test_one_pass_counts_match_per_degree_recounts(level33, monkeypatch):
    # a planned class set counts each unordered pair once, up to the planned
    # degree, and its matrices agree with recounting every ordered pair
    C = IdealClassSet(level33.order, level33.classes, level33.rights)
    assert C.h >= 3
    passes = []
    original = Lattice4.norm_counts

    def counted(self, bound, scale=1):
        passes.append(bound)
        return original(self, bound, scale)

    monkeypatch.setattr(Lattice4, "norm_counts", counted)
    C.plan(13)
    mats = {n: C.brandt(n) for n in range(1, 14)}
    assert passes == [13] * (C.h * (C.h + 1) // 2)
    monkeypatch.setattr(Lattice4, "norm_counts", original)

    es = C.unit_counts
    for i in range(C.h):
        for j in range(C.h):
            P = C.classes[j].conjugate().product(C.classes[i])
            content = P.norm_content()
            for n, B in mats.items():
                assert es[j] * B[i][j] == es[i] * B[j][i]
                raw = P.norm_counts(n, scale=content).get(n, 0)
                assert B[i][j] * es[j] == raw, (i, j, n)


def test_brandt_rejects_bad_degree(level15):
    with pytest.raises(ValueError):
        level15.brandt(0)


# ---------------------------------------------------------------------------
# eigenlines
# ---------------------------------------------------------------------------


def test_level15_eigenlines(level15):
    lines = rational_eigenlines(level15)
    assert len(lines) == 2
    cusp = [f for f in lines if f.is_cuspidal()]
    eis = [f for f in lines if not f.is_cuspidal()]
    assert len(cusp) == 1 and len(eis) == 1
    f = cusp[0]
    assert f.vector == (1, -1)
    # eigenvalues of the tracked newform at level 15
    assert f.eigenvalue(2) == -1
    assert f.eigenvalue(3) == -1
    assert f.eigenvalue(5) == 1
    assert f.eigenvalue(7) == 0
    assert f.eigenvalue(11) == -4
    # signs of the level involutions
    assert f.involution_sign(3) == 1
    assert f.involution_sign(5) == -1
    # the Eisenstein line is the unit-count direction with eigenvalue p+1
    e = eis[0]
    w = [Fraction(v) * u for v, u in zip(e.vector, level15.unit_counts)]
    assert w[0] == w[1]
    assert e.eigenvalue(7) == 8


def test_eigenvalues_match_point_counts(level15, level11):
    for C, N in ((level15, 15), (level11, 11)):
        f = next(f for f in rational_eigenlines(C) if f.is_cuspidal())
        for p in (2, 3, 7, 13, 17, 19):
            if N % p == 0:
                continue
            assert f.eigenvalue(p) == oracles.newform_ap(N, p), (N, p)


def test_hasse_bound(level15, level11, level33):
    for C, N in ((level15, 15), (level11, 11), (level33, 33)):
        for f in cuspidal_eigenlines(C):
            for p in (2, 7, 13):
                if N % p == 0:
                    continue
                assert f.eigenvalue(p) ** 2 <= 4 * p


def test_cuspidal_means_summing_to_zero(level15):
    for f in rational_eigenlines(level15):
        assert f.is_cuspidal() == (sum(f.vector) == 0)


def test_level33_old_lines_are_filtered_by_sign(level33):
    # the class set at ramification {11}, level 33 carries a two-dimensional
    # block of lines coming from level 11; they split rationally but their
    # degree-3 eigenvalues are not signs, so bad_sign rejects them
    lines = cuspidal_eigenlines(level33)
    assert len(lines) == 3
    sign_ok = []
    for f in lines:
        try:
            f.bad_sign(3)
            sign_ok.append(f)
        except IrrationalEigenspaceError:
            continue
    assert len(sign_ok) == 1
    f = sign_ok[0]
    # the genuine level-33 newform
    for p in (2, 5, 7, 13):
        assert f.eigenvalue(p) == oracles.newform_ap(33, p)
    assert f.bad_sign(11) == 1
    assert f.bad_sign(3) == -1


def test_eigenvalue_requires_prime(level15):
    f = cuspidal_eigenlines(level15)[0]
    with pytest.raises(ValueError):
        f.eigenvalue(4)


def test_state_roundtrip(level15):
    C = level15
    C.brandt(2)
    C.brandt(7)
    state = C.to_state()
    C2 = IdealClassSet.from_state(C.order, state)
    assert C2.h == C.h
    assert C2.unit_counts == C.unit_counts
    assert C2.brandt(2) == C.brandt(2)
    assert C2.brandt(7) == C.brandt(7)
    # fresh computation beyond the cached degrees still works
    assert C2.brandt(11) == C.brandt(11)
    f = cuspidal_eigenlines(C2)[0]
    assert f.vector == (1, -1)


def test_apply_is_row_action(level15):
    C = level15
    B = C.brandt(2)
    v = (1, -1)
    w = C.apply(v, 2)
    assert w == [v[0] * B[0][j] + v[1] * B[1][j] for j in range(2)]
