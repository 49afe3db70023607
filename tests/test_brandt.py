"""Tests for ideal classes, degree matrices, and rational eigenlines."""

import functools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import halfint.brandt as brandt_module
import oracles
from halfint.brandt import (
    Eigenform,
    IdealClassSet,
    _atkin_lehner,
    _class_key,
    _pair_lattice,
    _phi,
    _psi,
    _ratio_text,
    _unit_mass,
    _weighted_symmetric,
    cuspidal_eigenlines,
    ideal_classes,
    _neighbors,
)
from halfint.errors import IrrationalEigenspaceError, MissingEigenvalueError
from halfint.kernels import _eigenspace, _product, combine
from halfint.lattice import Lattice4, eichler_order, maximal_order
from halfint.numth import factorize, prime_factors
from halfint.quat import QuaternionAlgebra, algebra_ramified_at
from oracles import _odd_subsets, basis, contains_lattice, equivalent_ideals, from_vectors, qelt


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
    assert _unit_mass(C.unit_counts) == (4, 3)
    assert C.mass_text == "4/3"
    assert C.unit_counts == [2, 6]
    assert C.level == 15


def test_level11_class_data(level11):
    C = level11
    assert C.h == 2
    assert _unit_mass(C.unit_counts) == (5, 6)
    assert C.mass_text == "5/6"
    assert sorted(C.unit_counts) == [4, 6]


def test_mass_formula():
    # the search's target phi(D) psi(N/D) / 12, in twelfths
    for D, N, text in ((5, 15, "4/3"), (11, 11, "5/6"), (37, 37, "3"), (11, 33, "10/3")):
        twelfths = _phi(D) * _psi(N // D)
        assert _ratio_text(twelfths, 12) == text
        assert Fraction(twelfths, 12) == oracles.eichler_mass_ref(D, N)


def test_neighbors_structure(level15):
    C = level15
    neigh = list(_neighbors(C.classes[0], C.rights[0]))
    # the degree-2 graph is 3-regular
    assert len(neigh) == 3
    for J in neigh:
        assert oracles.index_ref(C.classes[0], J) == 4
        assert contains_lattice(C.order.lattice, J)
    # eichler_order takes the neighbours of a maximal order at odd p
    M = maximal_order(algebra_ramified_at([11]))
    for p in (3, 5, 7):
        assert list(_neighbors(M.lattice, M, p)) == oracles.neighbors_ref(M.lattice, M, p)


def test_equivalence_relation(level15):
    C = level15
    alg = C.alg
    I = C.classes[0]
    # a principal twist stays equivalent
    x = qelt(1, 1, 1, 0)
    Ix = from_vectors(alg, [alg.mul(b, x) for b in basis(I)])
    assert equivalent_ideals(I, Ix)
    assert equivalent_ideals(Ix, I)
    # distinct classes are not equivalent
    assert not equivalent_ideals(C.classes[0], C.classes[1])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any),
)
def test_class_key_is_invariant_under_right_multiplication(level33, index, x):
    I = level33.classes[index]
    alg = I.alg
    Ix = from_vectors(alg, [alg.mul(b, tuple(x)) for b in basis(I)])
    assert _class_key(Ix) == _class_key(I)


@pytest.mark.parametrize("level", [11, 15, 21, 33, 35, 37, 57, 67, 105])
def test_bucketed_classes_match_all_pairs_scan(level):
    for ramified in _odd_subsets(prime_factors(level)):
        order = eichler_order(algebra_ramified_at(list(ramified)), level)
        assert ideal_classes(order).classes == oracles.ideal_classes_ref(order)


@pytest.mark.parametrize("level", [15, 21, 33, 35, 37, 57, 67, 105])
def test_every_class_has_one_neighbour_back_to_its_parent(level):
    # the search skips the neighbour 2 I_parent of each class it found
    # as a neighbour of I_parent; that neighbour is always there, once
    for ramified in _odd_subsets(prime_factors(level)):
        C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
        nbrs = [list(_neighbors(I, right)) for I, right in zip(C.classes, C.rights)]
        for j in range(1, C.h):
            # breadth first, so a class comes from the first class it neighbours
            parent = next(i for i in range(C.h) if C.classes[j] in nbrs[i])
            assert parent < j
            back = C.classes[parent].scale(2)
            assert sum(J == back for J in nbrs[j]) == 1
            assert equivalent_ideals(back, C.classes[parent])


def test_search_skips_the_neighbour_back_to_the_parent(monkeypatch):
    # keying every neighbour of a cold N=105 search takes 81 keys; the 22
    # neighbours 2 I_parent that the search skips take none
    calls = []

    def counted(I):
        calls.append(I)
        return _class_key(I)

    monkeypatch.setattr(brandt_module, "_class_key", counted)
    for ramified in _odd_subsets(prime_factors(105)):
        ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), 105))
    assert len(calls) == 81 - 22


@pytest.mark.parametrize("level", [15, 21, 33, 35, 37, 57, 67, 105])
def test_generators_pair_lattices_and_neighbors(level):
    for ramified in _odd_subsets(prime_factors(level)):
        C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
        alg, O = C.alg, C.order
        for I, gens in zip(C.classes, C.gens):
            assert len(gens) == 2
            ys = [tuple(Fraction(x, I.den) for x in y) for y in gens]
            assert from_vectors(
                alg, [alg.mul(o, y) for o in basis(O.lattice) for y in ys]
            ) == I
        for j, I_j in enumerate(C.classes):
            conj_j = I_j.conjugate()
            for i in range(j + 1):
                I_i = C.classes[i]
                assert _pair_lattice(conj_j, I_i, C.gens[i]) == conj_j.product(I_i)
        for I, right in zip(C.classes, C.rights):
            assert list(_neighbors(I, right)) == oracles.neighbors_ref(I, right)


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


def test_row_sum_rule_values(level15, level33):
    # N = 15, D = 5: sigma(p^k) at p = 2, 1 + 2(3 + ... + 3^k) at 3 | N/D,
    # 1 at 5 | D, multiplied over the primes of n
    assert [level15.row_sum(n) for n in (1, 2, 4, 3, 9, 27, 5, 25, 60)] == [
        1, 3, 7, 7, 25, 79, 1, 1, 49,
    ]
    # N = 33, D = 11
    assert [level33.row_sum(n) for n in (3, 9, 11, 121, 5, 6, 99)] == [7, 25, 1, 1, 6, 21, 25]


# class sets counted to degree RULE_DEGREE against the row-sum rule
RULE_SETS = [
    (15, (3,)), (21, (7,)), (33, (11,)), (35, (5,)), (57, (3,)),
    (105, (3, 5, 7)), (143, (11,)), (231, (3,)), (399, (3, 7, 19)),
]
RULE_IDS = [f"{N}-{'.'.join(map(str, D))}" for N, D in RULE_SETS]
RULE_DEGREE = 40


@functools.cache
def _counted_set(level, ramified):
    C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
    C.plan(RULE_DEGREE)
    for n in range(1, RULE_DEGREE + 1):
        C.brandt(n)
    return C


@pytest.mark.parametrize("level, ramified", RULE_SETS, ids=RULE_IDS)
def test_counted_row_sums_follow_the_rule(level, ramified):
    C = _counted_set(level, ramified)
    for n in range(1, RULE_DEGREE + 1):
        assert {sum(row) for row in C.brandt(n)} == {C.row_sum(n)}, n


@pytest.mark.parametrize("level, ramified", RULE_SETS, ids=RULE_IDS)
def test_counted_state_loads(level, ramified):
    # every degree to RULE_DEGREE, ramified powers and powers of primes
    # dividing N/D included, passes every load check
    C = _counted_set(level, ramified)
    loaded = IdealClassSet.from_state(ideal_classes(C.order), C.to_state())
    assert loaded.to_state() == C.to_state()


# class sets with a ramified prime above KEY_DEGREE; 285 at (3, 5, 19) has
# denominators divisible by 3
ATKIN_LEHNER_SETS = [(37, (37,)), (57, (19,)), (67, (67,)), (285, (19,)), (285, (3, 5, 19))]
ATKIN_LEHNER_IDS = [f"{N}-{'.'.join(map(str, D))}" for N, D in ATKIN_LEHNER_SETS]


@pytest.mark.parametrize("level, ramified", ATKIN_LEHNER_SETS, ids=ATKIN_LEHNER_IDS)
def test_atkin_lehner_permutation_is_the_counted_ramified_degree(level, ramified):
    # one pass to the largest ramified prime counts every B(q), and the map
    # reads the class keys, which that pass leaves as the search found them
    C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
    C.plan(max(ramified))
    C.brandt(1)
    perms = {q: _atkin_lehner(C, q) for q in ramified}
    for q, w in perms.items():
        assert [w[i] for i in w] == list(range(C.h))
        permutation = tuple(tuple(int(k == w[j]) for k in range(C.h)) for j in range(C.h))
        assert C.brandt(q) == permutation, q


@pytest.mark.parametrize("level, ramified", RULE_SETS, ids=RULE_IDS)
def test_loaded_set_derives_the_counted_degrees(level, ramified):
    # the state holds the prime powers only; a loaded set builds every
    # degree with two primes as a product, and B(19) at N = 399 as the
    # permutation of the classes by the prime over 19, with no count
    C = _counted_set(level, ramified)
    state = C.to_state()
    assert all(len(factorize(int(n))) < 2 for n in state["brandt"])
    loaded = IdealClassSet.from_state(ideal_classes(C.order), state)
    for n in range(1, RULE_DEGREE + 1):
        assert loaded.brandt(n) == C.brandt(n), n
    assert loaded._counted == 0


def test_stored_ramified_degree_above_key_degree_is_never_read():
    # at N = 57 in the algebra ramified at 19, B(19) moves class 0, so the
    # identity passes every check of a stored matrix: 19 > KEY_DEGREE, and
    # the row sum is 1.  B(19) is built from the prime over 19 on every
    # run, so the stored one is skipped, and the next state leaves it out
    C = ideal_classes(eichler_order(algebra_ramified_at([19]), 57))
    C.plan(19)
    C.brandt(2)  # one pass to 19, so B(19) is read from the counts
    state = C.to_state()
    assert "19" not in state["brandt"]
    identity = [[int(i == j) for j in range(C.h)] for i in range(C.h)]
    assert C.brandt(19) != tuple(map(tuple, identity))
    state["brandt"]["19"] = identity
    loaded = IdealClassSet.from_state(ideal_classes(C.order), state)
    assert loaded.brandt(19) == C.brandt(19)
    assert "19" not in loaded.to_state()["brandt"]


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


@st.composite
def _weighted_symmetric_pairs(draw):
    """(es, A, B): unit counts that are not all equal, A = E S with S
    symmetric and E = diag(es), and B = E T with T symmetric or B = k A^2
    + c A, which commutes with A."""
    h = draw(st.integers(2, 4))
    es = draw(st.lists(st.integers(1, 12), min_size=h, max_size=h))
    assume(len(set(es)) > 1)

    def weighted():
        upper = draw(st.lists(st.integers(-4, 4), min_size=h * h, max_size=h * h))
        sym = [[upper[min(i, j) * h + max(i, j)] for j in range(h)] for i in range(h)]
        return [[es[i] * x for x in sym[i]] for i in range(h)]

    A = weighted()
    if draw(st.booleans()):
        B = weighted()
    else:
        k, c = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        B = [[k * x + c * y for x, y in zip(r, s)] for r, s in zip(_product(A, A), A)]
    return es, A, B


@settings(max_examples=200, deadline=None)
@given(_weighted_symmetric_pairs())
def test_product_of_weighted_symmetric_is_so_when_they_commute(pair):
    es, A, B = pair
    assert _weighted_symmetric(A, es) and _weighted_symmetric(B, es)
    AB = _product(A, B)
    assert _weighted_symmetric(AB, es) == (AB == _product(B, A))


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
    # a class set planned past KEY_DEGREE counts each unordered pair once,
    # up to the planned degree (row 0 and the diagonal on the classes and
    # the right orders), and its matrices agree with recounting every
    # ordered pair
    C = ideal_classes(level33.order)
    assert C.h >= 3
    passes = []
    original = Lattice4.norm_counts

    def counted(self, bound):
        passes.append(bound)
        return original(self, bound)

    monkeypatch.setattr(Lattice4, "norm_counts", counted)
    C.plan(17)
    mats = {n: C.brandt(n) for n in range(1, 18)}
    assert passes == [17] * (C.h * (C.h + 1) // 2)
    monkeypatch.setattr(Lattice4, "norm_counts", original)

    es = C.unit_counts
    for i in range(C.h):
        for j in range(C.h):
            P = C.classes[j].conjugate().product(C.classes[i])
            for n, B in mats.items():
                assert es[j] * B[i][j] == es[i] * B[j][i]
                raw = P.norm_counts(n).get(n, 0)
                assert B[i][j] * es[j] == raw, (i, j, n)


@pytest.mark.parametrize("level", [15, 35, 37, 67, 105])
def test_reused_pair_counts_match_built_pair_lattices(level):
    # row 0 and the diagonal are counted on the classes and the right orders
    # themselves; every pair must have the counts of conj(I_j) I_i built out
    for ramified in _odd_subsets(prime_factors(level)):
        C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
        C._count(13)
        for j in range(C.h):
            conj_j = C.classes[j].conjugate()
            for i in range(j + 1):
                P = _pair_lattice(conj_j, C.classes[i], C.gens[i])
                want = list(P.norm_counts(13).items())
                assert list(C._counts[i, j].items()) == want, (ramified, i, j)


@pytest.mark.parametrize("level", [15, 35, 37, 67, 105])
def test_class_set_holds_the_searched_order_and_unit_counts(level):
    # the Eichler order is the first right order itself, and each unit count
    # read from the search's (j, j) count is the right order's own count
    for ramified in _odd_subsets(prime_factors(level)):
        order = eichler_order(algebra_ramified_at(list(ramified)), level)
        C = ideal_classes(order)
        assert C.rights[0] is order
        assert C.unit_counts == [oracles.unit_count(right) for right in C.rights], ramified


def test_brandt_rejects_bad_degree(level15):
    with pytest.raises(ValueError):
        level15.brandt(0)


# ---------------------------------------------------------------------------
# eigenlines
# ---------------------------------------------------------------------------


class _FixedAction:
    """A class set whose every degree matrix sends any vector to w."""

    def __init__(self, w):
        self.w = w

    def apply(self, v, n):
        return list(self.w)


def test_eigenvalue_is_exact_in_integers():
    # lam = w_i / v_i at the first nonzero v_i, once w is proportional to v
    assert Eigenform(_FixedAction([0, -6, 9]), (0, 2, -3)).eigenvalue(2) == -3
    # w is neither proportional to v nor an integer multiple: the relation
    # is tested first
    with pytest.raises(MissingEigenvalueError):
        Eigenform(_FixedAction([3, 4]), (2, 2)).eigenvalue(3)
    with pytest.raises(IrrationalEigenspaceError):
        Eigenform(_FixedAction([3, 3]), (2, 2)).eigenvalue(3)


def _eisenstein_row(class_set):
    """The row with entries 1/e_j, scaled to integers."""
    L = lcm(*class_set.unit_counts)
    return [L // e for e in class_set.unit_counts]


def test_level15_eigenlines(level15):
    (f,) = cuspidal_eigenlines(level15)
    assert f.vector == (1, -1)
    # eigenvalues of the tracked newform at level 15
    assert f.eigenvalue(2) == -1
    assert f.eigenvalue(3) == -1
    assert f.eigenvalue(5) == 1
    assert f.eigenvalue(7) == 0
    assert f.eigenvalue(11) == -4
    # the Eisenstein line, the unit-count direction, has eigenvalue p+1
    e = _eisenstein_row(level15)
    assert e == [3, 1]
    assert level15.apply(e, 7) == [8 * x for x in e]


def test_eigenvalues_match_point_counts(level15, level11):
    for C, N in ((level15, 15), (level11, 11)):
        f = cuspidal_eigenlines(C)[0]
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


def test_cuspidal_means_summing_to_zero(level15, level11, level33):
    # the all-ones column is an eigenvector of every B(p) at row_sum(p), so
    # B(p) keeps the hyperplane sum(v) = 0 that the refinement starts from;
    # the Eisenstein row, outside it, is the eigenvector at the same value
    for C in (level15, level11, level33):
        for f in cuspidal_eigenlines(C):
            assert sum(f.vector) == 0
        e = _eisenstein_row(C)
        assert sum(e) != 0
        for p in (2, 3, 5, 7, 11, 13):
            B, total = C.brandt(p), C.row_sum(p)
            assert [sum(row) for row in B] == [total] * C.h
            assert C.apply(e, p) == [total * x for x in e]


def test_level33_old_lines_are_filtered_by_sign(level33):
    # the class set at ramification {11}, level 33 carries a two-dimensional
    # block of lines coming from level 11; they split rationally but their
    # degree-3 eigenvalues are not signs, so the sign test rejects them
    lines = cuspidal_eigenlines(level33)
    assert len(lines) == 3
    sign_ok = [f for f in lines if f.eigenvalue(3) in (1, -1)]
    assert len(sign_ok) == 1
    f = sign_ok[0]
    # the genuine level-33 newform
    for p in (2, 5, 7, 13):
        assert f.eigenvalue(p) == oracles.newform_ap(33, p)
    assert f.eigenvalue(11) == 1
    assert f.eigenvalue(3) == -1


# every rational eigenline (cuspidal or not) of every odd ramification
# subset, with its eigenvalues at 2..13.  The eigenvalue scan runs over
# |lambda| <= the largest row sum: Eisenstein lines sit at the top end,
# and at level 57 the line (0, 0, 1, -1) is split off by the ramified
# degree-3 matrix (a permutation) at eigenvalue -1, the bottom end.
RATIONAL_EIGENLINES = {
    (11, (11,)): [((1, -1), (-2, -1, 1, -2, 1, 4)), ((3, 2), (3, 4, 6, 8, 1, 14))],
    (15, (3,)): [((1, -1), (-1, -1, 1, 0, -4, -2)), ((1, 1), (3, 1, 11, 8, 12, 14))],
    (15, (5,)): [((1, -1), (-1, -1, 1, 0, -4, -2)), ((3, 1), (3, 7, 1, 8, 12, 14))],
    (21, (3,)): [((1, -1), (-1, 1, -2, -1, 4, -2)), ((1, 3), (3, 1, 6, 15, 12, 14))],
    (21, (7,)): [((1, -1), (-1, 1, -2, -1, 4, -2)), ((1, 1), (3, 7, 6, 1, 12, 14))],
    (33, (3,)): [((1, -1), (1, -1, -2, 4, 1, -2)), ((1, 1), (3, 1, 6, 8, 23, 14))],
    (33, (11,)): [
        ((0, 1, 0, -1), (-2, -4, 1, -2, 1, 4)),
        ((4, -1, -2, -1), (-2, 2, 1, -2, 1, 4)),
        ((1, -1, 1, -1), (1, -1, -2, 4, 1, -2)),
        ((3, 3, 1, 3), (3, 7, 6, 8, 1, 14)),
    ],
    (35, (5,)): [((1, 0, -1, 0), (0, 1, -1, 1, -3, 5)), ((1, 3, 1, 3), (3, 4, 1, 15, 12, 14))],
    (35, (7,)): [((1, -1, -1, 1), (0, 1, -1, 1, -3, 5)), ((1, 2, 2, 1), (3, 4, 11, 1, 12, 14))],
    (37, (37,)): [
        ((0, 1, -1), (-2, -3, -2, -1, -5, -2)),
        ((2, -1, -1), (0, 1, 0, -1, 3, -4)),
        ((1, 1, 1), (3, 4, 6, 8, 12, 14)),
    ],
    (57, (3,)): [
        ((0, 0, 1, -1), (-2, -1, -3, -5, 1, 2)),
        ((2, -4, 1, 1), (-2, 1, 1, 3, -3, -6)),
        ((1, 1, -1, -1), (1, 1, -2, 0, 0, 6)),
        ((1, 3, 3, 3), (3, 1, 6, 8, 12, 14)),
    ],
}


@pytest.mark.parametrize("level, ramified", sorted(RATIONAL_EIGENLINES))
def test_rational_eigenlines_golden(level, ramified):
    C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
    got = [
        (f.vector, tuple(f.eigenvalue(p) for p in (2, 3, 5, 7, 11, 13)))
        for f in oracles.rational_eigenlines_ref(C)
    ]
    assert got == RATIONAL_EIGENLINES[level, ramified]


# the golden class sets, and every odd ramification subset at four levels
# with 3 or 4 candidates each
HYPERPLANE_SETS = [
    *sorted(RATIONAL_EIGENLINES),
    *((N, ramified) for N in (141, 195, 307, 345) for ramified in _odd_subsets(prime_factors(N))),
]


@pytest.mark.parametrize(
    "level, ramified", HYPERPLANE_SETS,
    ids=[f"{N}-{'.'.join(map(str, ramified))}" for N, ramified in HYPERPLANE_SETS],
)
def test_cusp_hyperplane_refinement_matches_the_whole_space(level, ramified):
    # refined from sum(v) = 0 with |lam| <= isqrt(4p) at the good primes,
    # the lines, their order and their eigenvalues are those of refining
    # the whole space with |lam| <= row_sum(p) and dropping the Eisenstein
    # line afterwards
    C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
    primes_read = (*prime_factors(level), *brandt_module.ORDER_PRIMES)
    got, want = cuspidal_eigenlines(C), oracles.cuspidal_eigenlines_ref(C)
    assert [f.vector for f in got] == [f.vector for f in want]
    assert [[f.eigenvalue(p) for p in primes_read] for f in got] == [
        [f.eigenvalue(p) for p in primes_read] for f in want
    ]


def test_eigenvalue_requires_prime(level15):
    f = cuspidal_eigenlines(level15)[0]
    with pytest.raises(ValueError):
        f.eigenvalue(4)


def test_state_roundtrip(level15):
    C = level15
    C.brandt(2)
    C.brandt(7)
    state = C.to_state()
    C2 = IdealClassSet.from_state(ideal_classes(C.order), state)
    assert C2.h == C.h
    assert C2.unit_counts == C.unit_counts
    assert C2.brandt(2) == C.brandt(2)
    assert C2.brandt(7) == C.brandt(7)
    # fresh computation beyond the cached degrees still works
    assert C2.brandt(11) == C.brandt(11)
    f = cuspidal_eigenlines(C2)[0]
    assert f.vector == (1, -1)


def test_stored_composite_degree_is_never_read():
    # B(6) = B(2) B(3) is built on every run, so a stored B(6) that passes
    # every check of a stored matrix (weighted symmetry with e = (2, 6),
    # row sum 21) is skipped
    C = ideal_classes(eichler_order(algebra_ramified_at([5]), 15))
    for n in (2, 3, 6):
        C.brandt(n)  # the pass to 13 counts B(6) too
    state = C.to_state()
    assert sorted(state["brandt"]) == ["2", "3"]
    (a, b), (c, d) = C.brandt(6)
    tampered = [[a - 1, b + 1], [c + 3, d - 3]]
    assert min(min(row) for row in tampered) >= 0
    state["brandt"]["6"] = tampered
    loaded = IdealClassSet.from_state(ideal_classes(C.order), state)
    assert loaded.brandt(6) == C.brandt(6)
    assert "6" not in loaded.to_state()["brandt"]


@pytest.mark.parametrize("level", [37, 67])
def test_state_roundtrip_with_equal_keys(level):
    # distinct classes share a key here, so the search runs equivalence
    # tests that must all come out false, and a fresh search must find the
    # stored classes again in the same order
    C = ideal_classes(eichler_order(algebra_ramified_at([level]), level))
    assert len({tuple(_class_key(I).items()) for I in C.classes}) < C.h
    C.brandt(2)
    C2 = IdealClassSet.from_state(ideal_classes(C.order), C.to_state())
    assert C2.classes == C.classes
    assert C2.to_state() == C.to_state()


def test_apply_is_row_action(level15):
    C = level15
    B = C.brandt(2)
    v = (1, -1)
    w = C.apply(v, 2)
    assert w == [v[0] * B[0][j] + v[1] * B[1][j] for j in range(2)]


@st.composite
def _eigenspace_cases(draw):
    """(block, B, lam): a d x H integer block of full row rank, 1 <= d <= H,
    a square integer B and an integer lam.

    B = U^-1 A U for a unimodular U and an integer A whose first d rows
    are zero from column d on and lower triangular before it, so the first
    d rows of U span a subspace that B keeps, with A's first d diagonal
    entries as its eigenvalues.  The block is a basis of that subspace or
    d rows drawn freely; lam is one of those diagonal entries or any
    small integer, so it is a true eigenvalue in some draws only."""
    H = draw(st.integers(1, 5))
    d = draw(st.sampled_from(sorted({1, H, draw(st.integers(1, H))})))
    entries = st.integers(-3, 3)
    U = [[int(i == j) for j in range(H)] for i in range(H)]
    ops = st.tuples(st.integers(0, H - 1), st.integers(0, H - 1), entries)
    for i, j, c in draw(st.lists(ops, max_size=8)):
        if i != j:
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    A = [[draw(entries) if j <= i or i >= d else 0 for j in range(H)] for i in range(H)]
    B = oracles.mat_mul(oracles.mat_inv(U), oracles.mat_mul(A, U))
    B = [[int(x) for x in row] for row in B]
    if draw(st.booleans()):
        W = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
        block = oracles.mat_mul(W, U[:d])
    else:
        block = draw(st.lists(st.lists(entries, min_size=H, max_size=H), min_size=d, max_size=d))
    assume(len(oracles.rref(block)[0]) == d)
    lam = draw(st.one_of(st.sampled_from([A[i][i] for i in range(d)]), st.integers(-6, 6)))
    return block, B, lam


@settings(max_examples=200, deadline=None)
@given(_eigenspace_cases())
def test_eigenspace_matches_fraction_oracle(case):
    block, B, lam = case
    T = _product(block, B)
    rows = _eigenspace(T, block, lam)
    assert all(type(x) is int for r in rows for x in r)
    assert all(oracles.mat_mul([r], B)[0] == [lam * x for x in r] for r in rows)
    shifted = [[t - lam * x for t, x in zip(trow, brow)] for trow, brow in zip(T, block)]
    ref = [combine(block, k) for k in oracles.left_kernel_ref(shifted)]
    assert len(rows) == len(ref)
    assert oracles.rref(rows) == oracles.rref(ref)
