"""Tests for the exact number-theory kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint import numth
from halfint.errors import FactorizationError

import oracles


# ---------------------------------------------------------------------------
# valuations / splits
# ---------------------------------------------------------------------------


def test_xgcd_basic():
    g, s, t = oracles.xgcd(240, 46)
    assert g == 2 and s * 240 + t * 46 == 2


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, s, t = oracles.xgcd(a, b)
    assert s * a + t * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_padic_split_examples():
    assert numth.padic_split(48, 2) == (3, 4)
    assert numth.padic_split(18, 3) == (2, 2)
    assert numth.padic_split(7, 5) == (7, 0)
    assert numth.padic_split(-12, 2) == (-3, 2)


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        numth.valuation(0, 2)


def test_squarefree_split_examples():
    assert numth.squarefree_split(12) == (3, 2)
    assert numth.squarefree_split(1) == (1, 1)
    assert numth.squarefree_split(360) == (10, 6)
    assert numth.squarefree_split(68) == (17, 2)


@given(st.integers(1, 10**6))
def test_squarefree_split_reconstructs(n):
    core, y = numth.squarefree_split(n)
    assert core * y * y == n
    assert numth.is_squarefree(core)


@given(st.integers(-(10**6), 10**6).filter(lambda n: n != 0))
def test_squarefree_part_matches_reference(n):
    assert numth.squarefree_part(n) == oracles.squarefree_part_ref(n)


def test_fundamental_discriminant_values():
    assert oracles.fundamental_discriminant(1) == -4
    assert oracles.fundamental_discriminant(2) == -8
    assert oracles.fundamental_discriminant(3) == -3
    assert oracles.fundamental_discriminant(5) == -20
    assert oracles.fundamental_discriminant(7) == -7
    assert oracles.fundamental_discriminant(17) == -68


def test_fundamental_discriminant_rejects_non_squarefree():
    with pytest.raises(ValueError):
        oracles.fundamental_discriminant(12)


@given(st.integers(1, 3000).filter(numth.is_squarefree))
def test_fundamental_discriminant_is_fundamental(t):
    d = oracles.fundamental_discriminant(t)
    assert d < 0
    if d % 4 == 1 or d % 4 == -3:
        assert numth.is_squarefree(-d)
    else:
        assert d % 4 == 0 and (d // 4) % 4 in (2, 3, -2, -1)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


@given(st.integers(1, 10**6))
def test_factorize_roundtrip(n):
    fac = numth.factorize(n)
    prod = 1
    for p, e in fac.items():
        assert numth.is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_bound():
    with pytest.raises(FactorizationError):
        numth.factorize((1 << 40) + 1)


def test_is_prime_bound():
    # primality is trial division, so it keeps the bound factorize keeps
    # rather than dividing for minutes
    assert numth.is_prime(4294967291) and not numth.is_prime(numth.TRIAL_BOUND)
    for n in (numth.TRIAL_BOUND + 1, 1000000000000000009):
        with pytest.raises(ValueError, match="exceeds the trial-division bound 4294967296"):
            numth.is_prime(n)


def test_divisors():
    assert numth.divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert numth.divisors(1) == [1]


def test_primes_stream():
    it = numth.primes()
    assert [next(it) for _ in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------


def test_kronecker_values():
    assert numth.kronecker(-3, 5) == -1
    assert numth.kronecker(-68, 3) == 1
    assert numth.kronecker(4, 7) == 1
    assert numth.kronecker(2, 15) == 1
    assert numth.kronecker(-4, 7) == -1
    assert numth.kronecker(6, 3) == 0
    assert numth.kronecker(5, 1) == 1
    assert numth.kronecker(-1, -1) == -1


def test_kronecker_agrees_with_legendre():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(-30, 31):
            assert numth.kronecker(a, p) == oracles._legendre_ref(a, p)


@given(
    st.integers(-200, 200),
    st.integers(1, 199).filter(lambda n: n % 2 == 1),
    st.integers(1, 199).filter(lambda n: n % 2 == 1),
)
def test_kronecker_multiplicative_in_n(a, m, n):
    assert numth.kronecker(a, m * n) == numth.kronecker(a, m) * numth.kronecker(a, n)


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 399))
def test_kronecker_multiplicative_in_a(a, b, n):
    assert numth.kronecker(a * b, n) == numth.kronecker(a, n) * numth.kronecker(b, n)


@given(st.integers(1, 300).filter(numth.is_squarefree), st.integers(1, 10**4))
def test_kronecker_periodic_for_fundamental(t, n):
    d = oracles.fundamental_discriminant(t)
    assert numth.kronecker(d, n) == numth.kronecker(d, n + abs(d))


# ---------------------------------------------------------------------------
# Hilbert symbols: hand values, conic oracle, product formula
# ---------------------------------------------------------------------------


def test_hilbert2_hand_values():
    assert numth.hilbert2(2, 3) == -1
    assert numth.hilbert2(-1, -1) == -1
    assert numth.hilbert2(2, 5) == -1
    assert numth.hilbert2(-2, -5) == 1
    assert numth.hilbert2(5, 7) == 1
    assert numth.hilbert2(1, 7) == 1


def test_hilbert_odd_hand_values():
    assert numth.hilbert_odd(5, 7, 3) == 1
    assert numth.hilbert_odd(-2, -5, 5) == -1
    assert numth.hilbert_odd(-2, -5, 3) == 1
    assert numth.hilbert_odd(-1, -3, 3) == -1
    assert numth.hilbert_odd(3, 5, 3) == -1
    for b in (1, 2, 3, 5, 30):
        assert numth.hilbert_odd(1, b, 7) == 1


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        numth.hilbert2(0, 3)
    with pytest.raises(ValueError):
        numth.hilbert_odd(3, 0, 5)


def test_hilbert_real():
    assert oracles.hilbert_real(-2, -5) == -1
    assert oracles.hilbert_real(-2, 5) == 1
    assert oracles.hilbert_real(2, 5) == 1


def test_hilbert2_against_conic_search_small():
    for a in range(-20, 21):
        for b in range(a, 21):
            if a == 0 or b == 0:
                continue
            assert numth.hilbert2(a, b) == oracles.hilbert_ref(a, b, 2), (a, b)


def test_hilbert_odd_against_conic_search_small():
    for p in (3, 5, 7):
        for a in range(-20, 21):
            for b in range(a, 21):
                if a == 0 or b == 0:
                    continue
                assert numth.hilbert_odd(a, b, p) == oracles.hilbert_ref(a, b, p), (
                    a,
                    b,
                    p,
                )


def test_product_formula_small_grid():
    # prod over all places of (a,b)_v = 1
    for a in range(-20, 21):
        for b in range(a, 21):
            if a == 0 or b == 0:
                continue
            prod = oracles.hilbert_real(a, b)
            for p in numth.hilbert_support(a, b):
                prod *= numth.hilbert(a, b, p)
            assert prod == 1, (a, b)


@given(
    st.integers(-50, 50).filter(bool),
    st.integers(-50, 50).filter(bool),
    st.integers(-50, 50).filter(bool),
)
@settings(max_examples=60)
def test_hilbert_bimultiplicative(a, b, c):
    for p in (2, 3, 5, 7, 11):
        lhs = numth.hilbert(a, b * c, p)
        assert lhs == numth.hilbert(a, b, p) * numth.hilbert(a, c, p)


@given(st.integers(-80, 80).filter(bool), st.integers(-80, 80).filter(bool))
@settings(max_examples=80)
def test_hilbert_symmetric(a, b):
    for p in (2, 3, 5, 7):
        assert numth.hilbert(a, b, p) == numth.hilbert(b, a, p)


@given(st.integers(-80, 80).filter(bool))
@settings(max_examples=40)
def test_hilbert_square_trivial(a):
    # (a, b^2 * c)_p = (a, c)_p; in particular (a, b^2)_p = 1
    for p in (2, 3, 5, 7):
        assert numth.hilbert(a, 4 * 9, p) == 1
        assert numth.hilbert(a, a * a, p) == 1
