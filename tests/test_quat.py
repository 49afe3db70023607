"""Tests for quaternion arithmetic and algebra selection."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from halfint import numth, quat
from halfint.errors import EvenRootNumberError, SearchExhaustedError
from halfint.quat import QuaternionAlgebra, algebra_ramified_at, conj
from oracles import qadd, qelt, qscale, trd

# the basis (1, i, j, k)
ONE, I, J, K = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

B25 = QuaternionAlgebra(2, 5)  # ramified at {5}
B11 = QuaternionAlgebra(1, 1)  # Hamilton's, ramified at {2}

rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
quat_st = st.tuples(rational, rational, rational, rational)


def test_multiplication_table():
    for alg in (B25, B11):
        a, b = alg.a, alg.b
        assert alg.mul(I, I) == qelt(-a)
        assert alg.mul(J, J) == qelt(-b)
        assert alg.mul(I, J) == K
        assert alg.mul(J, I) == qscale(-1, K)
        assert alg.mul(K, K) == qelt(-a * b)
        assert alg.mul(I, K) == qscale(-a, J)
        assert alg.mul(K, J) == qscale(-b, I)
        for e in (ONE, I, J, K):
            assert alg.mul(ONE, e) == e == alg.mul(e, ONE)


@given(quat_st, quat_st, quat_st)
@settings(max_examples=60)
def test_associative_and_distributive(x, y, z):
    alg = B25
    assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))
    assert alg.mul(x, qadd(y, z)) == qadd(alg.mul(x, y), alg.mul(x, z))


@given(quat_st, quat_st)
@settings(max_examples=60)
def test_norm_multiplicative(x, y):
    alg = B25
    assert alg.nrd(alg.mul(x, y)) == alg.nrd(x) * alg.nrd(y)


@given(quat_st, quat_st)
@settings(max_examples=60)
def test_conjugation_rules(x, y):
    alg = B25
    # anti-automorphism
    assert conj(alg.mul(x, y)) == alg.mul(conj(y), conj(x))
    # x * conj(x) = nrd(x) and x + conj(x) = trd(x), both central
    assert alg.mul(x, conj(x)) == qelt(alg.nrd(x))
    assert qadd(x, conj(x)) == qelt(trd(x))
    # trace symmetry
    assert trd(alg.mul(x, y)) == trd(alg.mul(y, x))


@given(quat_st, quat_st)
@settings(max_examples=60)
def test_pairing_polarizes_norm(x, y):
    alg = B25
    assert 2 * alg.pair(x, y) == alg.nrd(qadd(x, y)) - alg.nrd(x) - alg.nrd(y)
    assert alg.pair(x, y) == alg.pair(y, x)
    assert alg.pair(x, y) == Fraction(trd(alg.mul(x, conj(y))), 2)


@given(quat_st)
@settings(max_examples=60)
def test_definite(x):
    assert B25.nrd(x) >= 0
    if x != qelt():
        assert B25.nrd(x) > 0


def test_ramified_sets():
    assert QuaternionAlgebra(1, 1).ramified == (2,)
    assert QuaternionAlgebra(2, 5).ramified == (5,)
    assert QuaternionAlgebra(1, 3).ramified == (3,)
    assert QuaternionAlgebra(1, 11).ramified == (11,)
    assert QuaternionAlgebra(1, 7).ramified == (7,)
    assert QuaternionAlgebra(2, 37).ramified == (37,)
    assert QuaternionAlgebra(2, 5).discriminant == 5


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=80)
def test_ramification_parity(a, b):
    # the infinite place is always ramified for definite algebras, so the
    # finite count is odd
    assert len(QuaternionAlgebra(a, b).ramified) % 2 == 1


def test_canonical_search():
    assert algebra_ramified_at([5]) == QuaternionAlgebra(2, 5)
    assert algebra_ramified_at([3]) == QuaternionAlgebra(1, 3)
    assert algebra_ramified_at([11]) == QuaternionAlgebra(1, 11)
    assert algebra_ramified_at([7]) == QuaternionAlgebra(1, 7)
    assert algebra_ramified_at([37]) == QuaternionAlgebra(2, 37)
    assert algebra_ramified_at([2]) == QuaternionAlgebra(1, 1)


def test_canonical_search_minimality():
    # nothing with a*b < 10 is ramified exactly at {5}
    for prod in range(1, 10):
        for a in numth.divisors(prod):
            assert QuaternionAlgebra(a, prod // a).ramified != (5,)


def test_search_over_odd_multiples_matches_full_scan():
    odd = [p for p in range(3, 24) if numth.is_prime(p)]
    targets = [S for k in (1, 3) for S in itertools.combinations(odd, k)]
    targets += [(2,), (2, 3, 5)]
    expected = oracles.algebra_ramified_at_ref(targets)
    assert {S: algebra_ramified_at(S) for S in targets} == expected


@pytest.mark.parametrize("target", [(5,), (2, 3, 5), (13, 17, 23)])
def test_search_bound_still_exhausts(target, monkeypatch):
    found = algebra_ramified_at(target)
    prod = found.a * found.b
    monkeypatch.setattr(quat, "SEARCH_BOUND", prod)
    assert algebra_ramified_at(target) == found
    monkeypatch.setattr(quat, "SEARCH_BOUND", prod - 1)
    with pytest.raises(SearchExhaustedError):
        algebra_ramified_at(target)


def test_even_sets_rejected():
    with pytest.raises(EvenRootNumberError):
        algebra_ramified_at([])
    with pytest.raises(EvenRootNumberError):
        algebra_ramified_at([3, 5])
