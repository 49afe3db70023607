"""Tests for lattices, Hermite form, enumeration, and orders."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import oracles

import halfint.kernels as kernels_module
from halfint.brandt import _pair_lattice, ideal_classes
from halfint.errors import IntegralityError, MaximalOrderNotFoundError
from halfint.kernels import _form_content, _lll, count_by_value, hnf_rows
from halfint.lattice import (
    Lattice4,
    Order,
    _close_to_order,
    eichler_order,
    maximal_order,
    right_order_lattice,
)
from halfint.numth import is_squarefree, prime_factors
from halfint.quat import QuaternionAlgebra, algebra_ramified_at, conj
from oracles import _odd_subsets, basis, contains_lattice, from_vectors, qelt, qscale

B25 = QuaternionAlgebra(2, 5)
B11 = QuaternionAlgebra(1, 1)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def _random_unimodular(rng, n=4):
    """Product of elementary matrices: determinant +-1."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for t in range(n):
            M[i][t] += c * M[j][t]
    return M


def test_hnf_shape_and_idempotence():
    rows = [[2, 1, 0, 5], [0, 3, 1, 1], [4, 1, 1, 0], [0, 0, 0, 7]]
    h = hnf_rows(rows)
    assert len(h) == 4
    for i in range(4):
        assert h[i][i] > 0
        for j in range(i):
            assert h[i][j] == 0
        for r in range(i):
            assert 0 <= h[r][i] < h[i][i]
    assert hnf_rows(h) == h


def test_hnf_invariant_under_unimodular():
    rng = random.Random(7)
    rows = [[2, 1, 0, 5], [0, 3, 1, 1], [4, 1, 1, 0], [1, 0, 0, 7]]
    h = hnf_rows(rows)
    for _ in range(25):
        U = _random_unimodular(rng)
        transformed = oracles.mat_mul(U, rows)
        assert hnf_rows([[int(x) for x in r] for r in transformed]) == h


def test_hnf_rank_deficient():
    assert hnf_rows([[1, 2, 3, 4], [2, 4, 6, 8]]) == [[1, 2, 3, 4]]
    assert hnf_rows([[0, 0, 0, 0]]) == []


@st.composite
def _int_matrices(draw):
    """1-16 rows of 1-8 entries in [-50, 50]: fresh rows, zero rows,
    repeats and sums or differences of a few base rows, so that the rank
    often falls short of both dimensions."""
    ncols = draw(st.integers(1, 8))
    base = draw(
        st.lists(st.lists(st.integers(-25, 25), min_size=ncols, max_size=ncols),
                 min_size=1, max_size=4)
    )
    fresh = st.lists(st.integers(-50, 50), min_size=ncols, max_size=ncols)
    row = st.one_of(
        fresh,
        st.just([0] * ncols),
        st.sampled_from(base),
        st.builds(
            lambda x, y, sign: [s + sign * t for s, t in zip(x, y)],
            st.sampled_from(base), st.sampled_from(base), st.sampled_from((1, -1)),
        ),
    )
    return draw(st.lists(row, min_size=1, max_size=16))


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_hnf_matches_euclidean_reference(rows):
    assert hnf_rows(rows) == oracles.hnf_rows_ref(rows)


# ---------------------------------------------------------------------------
# exact short-vector enumeration vs. box brute force
# ---------------------------------------------------------------------------


def _brute_counts(gram, bound, box):
    """{Q(c) / u: count} over the c in the box with Q(c) <= bound u, where
    u is the content of Q: `count_by_value`'s contract."""
    n = len(gram)
    unit = _form_content(gram)
    out = {}
    for c in itertools.product(range(-box, box + 1), repeat=n):
        q = sum(gram[i][j] * c[i] * c[j] for i in range(n) for j in range(n))
        assert q % unit == 0
        if q <= bound * unit:
            out[q // unit] = out.get(q // unit, 0) + 1
    return out


def _ref_counts(gram, bound):
    """`oracles.count_by_value_ref` (raw values, raw bound) with its bound
    and keys in units of the content u, keys ascending."""
    unit = _form_content(gram)
    ref = oracles.count_by_value_ref(gram, bound * unit)
    return sorted((val // unit, count) for val, count in ref.items())


@pytest.mark.parametrize(
    "gram,bound,box",
    [
        ([[2, 1], [1, 2]], 12, 6),
        ([[1, 0, 0], [0, 2, 1], [0, 1, 3]], 10, 6),
        ([[2, 0, 1, 0], [0, 3, 0, 1], [1, 0, 4, 0], [0, 1, 0, 5]], 9, 5),
        ([[3, 1], [1, 10]], 7, 8),
        # content 2 and 3, bounds that are not multiples of it
        ([[2, 0, 2], [0, 4, 2], [2, 2, 6]], 15, 4),
        ([[6, 0, 3, 0], [0, 9, 0, 3], [3, 0, 12, 0], [0, 3, 0, 15]], 28, 3),
    ],
)
def test_short_vectors_match_brute_force(gram, bound, box):
    # the bound is on the values, and count_by_value takes it in units of u
    units = bound // _form_content(gram)
    got = count_by_value(gram, units)
    want = _brute_counts(gram, units, box)
    assert got == want


def test_short_vectors_includes_zero_and_signs():
    # the zero vector once, (+-1, 0) and (0, +-1), then (+-1, +-1)
    assert count_by_value([[1, 0], [0, 1]], 2) == {0: 1, 1: 4, 2: 4}
    assert count_by_value([[1, 0], [0, 1]], -1) == {}


def test_short_vectors_deterministic():
    # content 2: the values up to 8
    gram = [[2, 1], [1, 4]]
    assert list(count_by_value(gram, 4).items()) == list(count_by_value(gram, 4).items())


def test_short_vectors_edge_forms():
    # rank 1, content 3: the zero vector once, then each +-c, as Q(c) / 3
    assert list(count_by_value([[3]], 4).items()) == [(0, 1), (1, 2), (4, 2)]
    assert list(count_by_value([[3]], 3).items()) == [(0, 1), (1, 2)]
    # bound 0 leaves the zero vector only
    assert count_by_value([[3]], 0) == {0: 1}
    assert count_by_value([[2, 1], [1, 2]], 0) == {0: 1}
    # content 2, values up to 20: only the top coordinate 0 fits, since
    # Q >= (99/2) c_2^2 > 20 for c_2 != 0
    got = count_by_value([[2, 1], [1, 50]], 10)
    assert list(got.items()) == [(0, 1), (1, 2), (4, 2), (9, 2)]
    assert got == _brute_counts([[2, 1], [1, 50]], 10, 4)


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        count_by_value([[1, 0], [0, -1]], 5)


@st.composite
def _definite_forms(draw):
    """Integer Gram matrices k d ((B^t B) / d + s I) = k (B^t B + d s I)
    of rank 1-4, with d in {1, 2, 3, 6} and a content factor k in
    {1, 2, 3, 8}, and bounds floor(k d t) + r on the values for t a
    fraction up to 12 with denominator at most 3 and r drawn from 0..k-1,
    so that the bound on the values is often not a multiple of the
    content."""
    n = draw(st.integers(1, 4))
    B = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    d = draw(st.sampled_from([1, 2, 3, 6]))
    s = draw(st.integers(0, 2))
    k = draw(st.sampled_from([1, 2, 3, 8]))
    gram = [
        [k * (sum(B[m][i] * B[m][j] for m in range(n)) + d * s * (i == j)) for j in range(n)]
        for i in range(n)
    ]
    assume(oracles.mat_det(gram) > 0)
    bound = draw(st.fractions(min_value=0, max_value=12, max_denominator=3))
    return gram, int(k * d * bound) + draw(st.integers(0, k - 1))


@settings(max_examples=80, deadline=None)
@given(_definite_forms())
def test_short_vectors_match_ldl_oracle(form):
    gram, bound = form
    # the values up to bound are those up to bound // u in units of u
    units = bound // _form_content(gram)
    got = count_by_value(gram, units)
    assert all(type(k) is int for k in got)
    assert list(got.items()) == _ref_counts(gram, units)
    # every vector with Q(c) <= bound has |c_i| <= sqrt(bound * (gram^-1)_ii)
    inv = oracles.mat_inv(gram)
    box = max(isqrt(int(bound * inv[i][i])) for i in range(len(gram)))
    assume(box <= 4)
    assert count_by_value(gram, units) == _brute_counts(gram, units, box)


def test_level37_pair_lattice_matches_ldl_oracle():
    # a real rank-4 pair lattice conj(I_2) I_1 of the maximal order of
    # discriminant 37, whose norm form has content 64, counted to degree 37
    class_set = ideal_classes(eichler_order(algebra_ramified_at([37]), 37))
    classes = class_set.classes
    P = _pair_lattice(classes[2].conjugate(), classes[1], class_set.gens[1])
    gram = P.int_gram()
    assert _form_content(gram) == 64
    got = count_by_value(gram, 37)
    assert list(got.items()) == _ref_counts(gram, 37)
    assert P.norm_counts(37) == got


@st.composite
def _integer_forms(draw):
    """Integer Gram matrices B^t B + s I of rank 1-4 with s in [-2, 2], so
    that some are not positive definite, and integer bounds up to 12."""
    n = draw(st.integers(1, 4))
    B = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    s = draw(st.integers(-2, 2))
    gram = [
        [sum(B[k][i] * B[k][j] for k in range(n)) + s * (i == j) for j in range(n)]
        for i in range(n)
    ]
    return gram, draw(st.integers(0, 12))


@settings(max_examples=120, deadline=None)
@given(_integer_forms())
def test_lll_gram_reduces_and_keeps_counts(form):
    gram, bound = form
    n = len(gram)
    # Sylvester: positive definite iff every leading minor is positive
    if any(oracles.mat_det([row[:k] for row in gram[:k]]) <= 0 for k in range(1, n + 1)):
        with pytest.raises(ValueError):
            _lll(gram)
        return
    reduced = _lll(gram)[0]
    assert all(type(x) is int for row in reduced for x in row)
    assert oracles.mat_det(reduced) == oracles.mat_det(gram)
    assert oracles.is_lll_reduced_ref(reduced)
    # the bound is on the values; count_by_value takes it in units of u
    units = bound // _form_content(gram)
    assert list(count_by_value(gram, units).items()) == _ref_counts(gram, units)
    inv = oracles.mat_inv(gram)
    box = max(isqrt(int(bound * inv[i][i])) for i in range(n))
    assume(box <= 4)
    assert count_by_value(reduced, units) == _brute_counts(gram, units, box)


@st.composite
def _skewed_forms(draw):
    """Positive-definite integer Gram matrices B^t B + s I of rank 1-4 with
    entries of B up to 60, far from reduced, so that LLL makes many size
    reductions and exchanges."""
    n = draw(st.integers(1, 4))
    B = draw(st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    s = draw(st.integers(0, 2))
    gram = [
        [sum(B[k][i] * B[k][j] for k in range(n)) + s * (i == j) for j in range(n)]
        for i in range(n)
    ]
    assume(oracles.mat_det(gram) > 0)
    return gram


@settings(max_examples=150, deadline=None)
@given(st.one_of(_definite_forms().map(lambda form: form[0]), _skewed_forms()))
def test_lll_gram_matches_nested_reference(gram):
    assert _lll(gram)[0] == oracles.lll_gram_ref(gram)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_definite_forms().map(lambda form: form[0]), _skewed_forms()))
def test_lll_state_of_a_reduced_matrix_matches_bareiss(gram):
    # a second pass leaves LLL's output as it is, and its minors and
    # coefficients are what a second elimination of that output finds
    reduced = _lll(gram)[0]
    G, d, lam = _lll(reduced)
    assert G == reduced
    minors, eliminated = oracles.bareiss_ref(reduced)
    assert d == minors
    n = len(gram)
    assert all(lam[c][i] == eliminated[i][c] for i in range(n) for c in range(i + 1, n))


def test_lll_gram_matches_nested_reference_on_pair_lattices():
    # every pair lattice conj(I_j) I_i, 0 < i < j, that a cold N=105 run
    # reduces before counting
    grams = []
    for ramified in _odd_subsets(prime_factors(105)):
        C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), 105))
        for j in range(2, C.h):
            conj_j = C.classes[j].conjugate()
            for i in range(1, j):
                P = _pair_lattice(conj_j, C.classes[i], C.gens[i])
                grams.append(P.int_gram())
    assert len(grams) == 134
    for gram in grams:
        assert _lll(gram)[0] == oracles.lll_gram_ref(gram)


def test_norm_counts_scale():
    # norms count in units of the content, so scaling the lattice keeps them
    L = _std(B25)  # nrd = x0^2 + 2 x1^2 + 5 x2^2 + 10 x3^2
    counts = {0: 1, 1: 2, 2: 2, 3: 4, 4: 2, 5: 2, 6: 8}
    for lat in (L, L.scale(2), _div(L, 3)):
        assert lat.norm_counts(6) == counts


def test_norm_counts_runs_one_lll_pass_per_count(monkeypatch):
    # a lattice keeps no reduced form: every count reduces the raw Gram
    # matrix once, inside count_by_value, and a repeated count repeats it
    want = _std(B25).norm_counts(9)
    passes = []
    lll = kernels_module._lll

    def counted(gram):
        passes.append([list(row) for row in gram])
        return lll(gram)

    monkeypatch.setattr(kernels_module, "_lll", counted)
    L = _std(B25).scale(3)
    first = L.norm_counts(6)
    assert passes == [L.int_gram()]
    assert L.norm_counts(9) == want
    assert L.norm_counts(6) == first
    assert len(passes) == 3 and all(gram == L.int_gram() for gram in passes)
    assert Lattice4.__slots__ == ("alg", "den", "rows")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.lists(
        st.lists(st.integers(-10**9, 10**9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ),
)
def test_int_gram_matches_reference(a, b, rows):
    # the rows need not be a Hermite basis: int_gram is the Gram matrix of
    # whatever rows the lattice holds
    lat = Lattice4(QuaternionAlgebra(a, b), 1, tuple(map(tuple, rows)))
    assert lat.int_gram() == oracles.int_gram_ref(lat)


# ---------------------------------------------------------------------------
# lattice basics
# ---------------------------------------------------------------------------


def _std(alg):
    return Lattice4.standard_order(alg)


def _div(lat, d):
    """lat / d: the same integer rows over d times the denominator."""
    return Lattice4.from_int_rows(lat.alg, d * lat.den, lat.rows)


def test_canonical_form_and_equality():
    L1 = Lattice4.from_int_rows(
        B25, 1, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    L2 = Lattice4.from_int_rows(
        B25, 3, [[3, 3, 0, 0], [0, 3, 0, 3], [0, 0, 3, 3], [0, 0, 0, 3]]
    )
    assert L1 == L2 == _std(B25)
    assert hash(L1) == hash(L2)


def test_from_vectors_rejects_degenerate():
    with pytest.raises(ValueError):
        from_vectors(B25, [qelt(1), qelt(2), qelt(0, 1), qelt(0, 0, 1)])
    with pytest.raises(ValueError):
        Lattice4.from_int_rows(B25, 0, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_contains_and_index():
    L = _std(B25)
    half = _div(L, 2)
    assert contains_lattice(half, L)
    assert not contains_lattice(L, half)
    # [half : L] = 16 from the determinant pairs, as the oracle has it
    (num, den), (sub_num, sub_den) = half._det_ratio(), L._det_ratio()
    assert sub_num * den == 16 * sub_den * num
    assert oracles.index_ref(half, L) == 16
    assert oracles.index_ref(L, half) == Fraction(1, 16)
    assert L.coordinates((3, -2, 1, 0)) == [3, -2, 1, 0]
    assert L.coordinates((1, 0, 0, 0), 2) is None
    assert half.coordinates((1, 0, 0, 0), 2) == [1, 0, 0, 0]


def test_scale_takes_a_nonzero_int():
    L = Lattice4.from_int_rows(B25, 2, [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    for c in (3, -3):
        assert L.scale(c) == from_vectors(B25, [qscale(c, v) for v in basis(L)])
    with pytest.raises(ValueError):
        L.scale(0)


def test_add_intersect_duality():
    L = _std(B25)
    M = _div(L.scale(3), 2)
    S, C = L.add(M), oracles.intersect_ref(L, M)
    assert S == _div(L, 2)
    assert C == L.scale(3)
    # distributes around: (L + M) contains both, (L cap M) contained in both
    for X in (L, M):
        assert contains_lattice(S, X)
        assert contains_lattice(X, C)


def test_product_of_standard_order():
    L = _std(B25)
    assert L.product(L) == L


def test_conjugate_involution():
    L = from_vectors(
        B25,
        [qelt(Fraction(1, 2), Fraction(1, 2)), qelt(0, 1), qelt(0, 0, 1), qelt(0, 0, 0, 1)],
    )
    assert L.conjugate().conjugate() == L


def test_norm_content():
    # the content of the norm form is that of int_gram over den^2
    L = _std(B25)
    for lat, content in ((L, 1), (L.scale(2), 4), (_div(L, 3), Fraction(1, 9))):
        assert Fraction(_form_content(lat.int_gram()), lat.den**2) == content


@pytest.mark.parametrize("level", [15, 35])
def test_int_gram_matches_pairing(level):
    from halfint.brandt import _pair_lattice, ideal_classes
    from halfint.numth import prime_factors

    for ramified in prime_factors(level):
        alg = algebra_ramified_at([ramified])
        class_set = ideal_classes(eichler_order(alg, level))
        for lat in class_set.classes:
            bas = basis(lat)
            sq = lat.den * lat.den
            assert lat.int_gram() == [[sq * alg.pair(x, y) for y in bas] for x in bas]


def test_level15_ternary_histograms_match_ldl_oracle():
    from halfint.brandt import _pair_lattice, ideal_classes
    from halfint.theta import trace_zero_lattice

    alg = algebra_ramified_at([5])
    class_set = ideal_classes(eichler_order(alg, 15))
    for right in class_set.rights:
        R = trace_zero_lattice(right)
        gram, sq = R.int_gram(), R.den * R.den
        # the norm n is the value n den^2 of gram, the key n den^2 / u
        unit = _form_content(gram)
        bas = [[Fraction(x, R.den) for x in row] for row in R.rows]
        want = oracles.count_by_value_ref([[alg.pair(x, y) for y in bas] for x in bas], 4000)
        got = count_by_value(gram, 4000 * sq // unit)
        assert [(Fraction(k * unit, sq), c) for k, c in got.items()] == sorted(want.items())


@st.composite
def _lattice_pairs(draw):
    """Two full-rank lattices rows / den in (-2, -5) or (-1, -1): entries
    in [-4, 4], den <= 6."""
    alg = draw(st.sampled_from([B25, B11]))

    def one():
        rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                             min_size=4, max_size=4))
        assume(oracles.mat_det(rows) != 0)
        den = draw(st.integers(1, 6))
        lat = Lattice4.from_int_rows(alg, den, rows)
        assert lat == from_vectors(alg, [[Fraction(x, den) for x in r] for r in rows])
        return lat

    return one(), one()


@settings(max_examples=60, deadline=None)
@given(_lattice_pairs())
def test_integer_lattice_algebra_matches_fraction_oracles(pair):
    L, M = pair
    alg = L.alg
    assert L.add(M) == from_vectors(alg, basis(L) + basis(M))
    assert L.product(M) == from_vectors(
        alg, [alg.mul(x, y) for x in basis(L) for y in basis(M)]
    )
    for lat in (L, M):
        assert lat.conjugate() == from_vectors(alg, [conj(v) for v in basis(lat)])
        assert oracles.right_order_intersection_ref(lat) == oracles.order_ref(lat, "right")
        assert Fraction(*lat._det_ratio()) == oracles.det_ref(lat)
        disc = oracles.reduced_discriminant_ref(lat)
        if disc.denominator == 1:
            assert lat.reduced_discriminant() == disc
        else:
            with pytest.raises(IntegralityError):
                lat.reduced_discriminant()


def test_reduced_discriminant_standard():
    # disc of Z<1,i,j,k> is 4ab
    assert _std(B25).reduced_discriminant() == 40
    assert _std(B11).reduced_discriminant() == 4


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def test_standard_lattice_is_order():
    assert _std(B25).is_order()
    assert not _div(_std(B25), 2).is_order()


def test_right_order_of_order_is_itself():
    L = _std(B25)
    assert right_order_lattice(L) == L
    assert oracles.order_ref(L, "left") == L


@pytest.mark.parametrize("level", [15, 21, 35, 67, 105])
def test_right_order_product_matches_intersection_on_classes(level):
    # conj(I) I / nrd(I) is the right order only for invertible I; every
    # class the search finds is one (a chain of 2-neighbours, 2 prime to N)
    for ramified in _odd_subsets(prime_factors(level)):
        C = ideal_classes(eichler_order(algebra_ramified_at(list(ramified)), level))
        for I in C.classes:
            assert right_order_lattice(I) == oracles.right_order_intersection_ref(I)


def test_order_units_of_standard():
    # Z<1,i,j,k> in Hamilton's algebra has units {+-1, +-i, +-j, +-k}
    assert oracles.unit_count(Order(_std(B11))) == 8


def test_hurwitz_order():
    M = maximal_order(B11)
    assert M.reduced_discriminant == 2
    # the Hurwitz order has 24 units
    assert oracles.unit_count(M) == 24
    assert M.lattice.coordinates((1, 1, 1, 1), 2) is not None


def test_close_to_order_is_exact():
    # Z<1,i,j,k> in (-1,-1) with i/2 added lies in no order: (i/2)^2 = -1/4;
    # with (1+i+j+k)/2 added it is the Hurwitz order, already closed
    std = _std(B11)
    doubled = [[2 * x for x in row] for row in std.rows]
    assert _close_to_order(Lattice4.from_int_rows(B11, 2, doubled + [[0, 1, 0, 0]])) is None
    hurwitz = Lattice4.from_int_rows(B11, 2, doubled + [[1, 1, 1, 1]])
    closed = _close_to_order(hurwitz)
    assert closed == hurwitz == maximal_order(B11).lattice
    assert closed.is_order() and closed.reduced_discriminant() == 2


@pytest.mark.parametrize(
    "alg,disc",
    [
        (QuaternionAlgebra(1, 1), 2),
        (QuaternionAlgebra(1, 3), 3),
        (QuaternionAlgebra(2, 5), 5),
        (QuaternionAlgebra(1, 7), 7),
        (QuaternionAlgebra(1, 11), 11),
        (QuaternionAlgebra(2, 37), 37),
    ],
)
def test_maximal_orders(alg, disc):
    M = maximal_order(alg)
    assert M.reduced_discriminant == disc
    assert M.lattice.is_order()
    assert M.lattice.coordinates((1, 0, 0, 0)) is not None


def test_right_order_conjugation_covariance():
    # O_r(O x) = x^{-1} O x
    M = maximal_order(B25)
    x = qelt(1, 1, 0, 1)
    nx = B25.nrd(x)
    xinv = qscale(1 / nx, conj(x))
    ideal = from_vectors(B25, [B25.mul(b, x) for b in basis(M.lattice)])
    got = right_order_lattice(ideal)
    want = from_vectors(
        B25, [B25.mul(B25.mul(xinv, b), x) for b in basis(M.lattice)]
    )
    assert got == want
    assert oracles.order_ref(ideal, "left") == M.lattice


@pytest.mark.parametrize(
    "signs,level,a_b",
    [
        ({3: 1, 5: -1}, 15, (2, 5)),
        ({11: -1}, 11, (1, 11)),
        ({3: -1, 7: 1}, 21, (1, 3)),
        ({3: -1, 11: 1}, 33, (1, 3)),
        ({3: 1, 11: -1}, 33, (1, 11)),
        ({5: -1, 7: 1}, 35, (2, 5)),
        ({37: -1}, 37, (2, 37)),
    ],
)
def test_eichler_orders(signs, level, a_b):
    alg = algebra_ramified_at([p for p, s in signs.items() if s == -1])
    assert (alg.a, alg.b) == a_b
    E = eichler_order(alg, level)
    assert E.reduced_discriminant == level
    assert E.lattice.is_order()


def test_eichler_rejects_bad_level():
    with pytest.raises(ValueError):
        eichler_order(B25, 7)  # not a multiple of disc 5
    with pytest.raises(ValueError):
        eichler_order(B25, 25)  # cofactor shares a prime with disc


# ---------------------------------------------------------------------------
# order digests: at a split prime the maximal order containing a given
# order is not unique, so these pin the orders the growth and the Eichler
# construction pick, (a, b, den, rows) for each algebra in a fixed sweep
# ---------------------------------------------------------------------------

MAXIMAL_ORDERS_DIGEST = "ad100c982adc71d0a2a38c4392ea1d392028aebf1dd748413621370922b2fae8"
EICHLER_ORDERS_DIGEST = "8b340d256b137fdbff6790615cf95984bef9348bdf1b51bf1dbf173d811c38c6"


def _odd_squarefree_levels(bound):
    return [N for N in range(3, bound, 2) if is_squarefree(N)]


def _orders_digest(orders) -> str:
    rows = [(o.alg.a, o.alg.b, o.lattice.den, o.lattice.rows) for o in orders]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _maximal_orders_below(bound):
    """maximal_order of every algebra ramified at an odd subset of the
    primes of an odd squarefree N < bound, sets ordered by product."""
    sets = {S for N in _odd_squarefree_levels(bound) for S in _odd_subsets(prime_factors(N))}
    ordered = sorted(sets, key=lambda S: (prod(S), S))
    return [maximal_order(algebra_ramified_at(list(S))) for S in ordered]


def _eichler_orders_below(bound):
    """eichler_order for every (odd subset S of the primes of N, N), N an
    odd squarefree level below bound, by level then subset."""
    return [
        eichler_order(algebra_ramified_at(list(S)), N)
        for N in _odd_squarefree_levels(bound)
        for S in _odd_subsets(prime_factors(N))
    ]


def test_maximal_orders_digest():
    orders = _maximal_orders_below(1000)
    assert len(orders) == 209
    assert all(o.reduced_discriminant == o.alg.discriminant for o in orders)
    assert _orders_digest(orders) == MAXIMAL_ORDERS_DIGEST


def test_eichler_orders_digest():
    orders = _eichler_orders_below(300)
    assert len(orders) == 195
    assert _orders_digest(orders) == EICHLER_ORDERS_DIGEST
