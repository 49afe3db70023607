"""Tests for local factors, gate logic, and the exact assembly of h."""

import math

import pytest
from hypothesis import given, strategies as st

import halfint
import oracles
from halfint import lift
from halfint.cli import JobConfig, kohnen_basis
from halfint.errors import MissingEigenvalueError, PrecisionError
from halfint.lift import LiftProfile, assemble_h, power_sums
from halfint.localfactors import alpha_pair, c2_prime, cp_0, cp_s, local_K
from halfint.numth import hilbert
from halfint.qexp import QExpansion
from oracles import (
    c2_doubleprime,
    f1_f2_diagnostic,
    global_factor,
    kronecker_gate,
    local_K_doubleprime,
)

SQRT2 = math.sqrt(2)
SQRT7 = math.sqrt(7)

# eigenvalues of the tracked eigenline at level 15 at 2, at the level
# primes and at the small good primes; this profile drives all the table
# tests
LEVEL15_PROFILE = LiftProfile(
    level=15, eigen={2: -1, 3: -1, 5: 1, 7: 0, 11: -4, 13: -2}
)

# the exactly-known coefficients of the level-15 theta eigenform
LEVEL15_G = QExpansion(
    100,
    {
        3: 1, 8: -2, 15: -1, 20: 2, 23: 2, 27: -1, 32: 2, 35: -2, 47: -2,
        48: -2, 60: 2, 72: 2, 75: 1, 80: -2, 83: 2, 87: 2, 92: -4,
    },
    kohnen=True,
)


def truncate(g, prec):
    """g through q^prec, prec at most g's precision."""
    assert prec <= g.prec
    return QExpansion(prec, {n: c for n, c in g.coeffs.items() if n <= prec}, kohnen=g.kohnen)


def deep_split(g):
    """(g, g4) through a fourth of g's precision: g4_m = g_{4m}, the
    series `assemble_h` reads beside g."""
    prec = g.prec // 4
    return truncate(g, prec), QExpansion(prec, {n // 4: c for n, c in g.coeffs.items() if n % 4 == 0})


# g4 of the level-15 theta eigenform, through 25
LEVEL15_G4 = deep_split(LEVEL15_G)[1]

# local products for n = 2..23 at level 15, exact radicals
TABLE_K1 = {
    2: 2, 3: (1 + 1j * SQRT7) / 2, 4: 0, 5: SQRT2, 6: 0, 7: 0,
    8: (-1 + 1j * SQRT7) / SQRT2, 9: 0, 10: 0, 11: 0, 12: -SQRT2, 13: 0,
    14: 0, 15: (-3 + 1j * SQRT7) / (2 * SQRT2), 16: 0, 17: 2,
    18: -2 / math.sqrt(3), 19: 0, 20: (-1 + 1j * SQRT7) / 2, 21: 0, 22: 0,
    23: (-3 + 1j * SQRT7) / SQRT2,
}

LEVEL15_H = {2: -4, 3: 1, 5: 4, 8: 2, 12: -4, 15: 3, 18: 4, 20: -2, 23: -6}


# ---------------------------------------------------------------------------
# profile plumbing
# ---------------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        LiftProfile(level=15, eigen={2: 0, 3: -1})  # missing prime 5
    with pytest.raises(ValueError):
        LiftProfile(level=15, eigen={2: 0, 3: -1, 5: 2})  # not a sign at 5
    with pytest.raises(ValueError):
        LiftProfile(level=15, eigen={2: 0, 3: -1, 5: -1})  # even signs
    with pytest.raises(ValueError):
        LiftProfile(level=9, eigen={2: 0, 3: 1})  # not squarefree
    with pytest.raises(ValueError):
        LiftProfile(level=15, eigen={3: -1, 5: 1})  # missing prime 2


def test_profile_eigenvalues():
    p = LEVEL15_PROFILE
    assert p.eigenvalue(2) == -1
    assert p.eigenvalue(3) == -1
    assert p.eigenvalue(5) == 1
    assert p.eigenvalue(13) == -2
    assert p.involution_sign(3) == 1
    assert p.bad == (3, 5)
    for q in p.bad:
        assert p.involution_sign(q) == -p.eigenvalue(q)
    with pytest.raises(MissingEigenvalueError):
        p.eigenvalue(19)


def test_alpha_pair():
    a, b = alpha_pair(LEVEL15_PROFILE)
    assert a.imag > 0
    assert abs(a - (-1 + 1j * SQRT7) / (2 * SQRT2)) < 1e-12
    assert abs(a * b - 1) < 1e-12
    assert abs(a + b - (-1) / SQRT2) < 1e-12


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


def test_power_sums_start():
    assert power_sums(-1, 3) == [2, -1, -3, 5]


@given(st.integers(-5, 5))
def test_power_sums_match_float_oracle(b2):
    # compare the integer recurrence against literal alpha powers
    ts = power_sums(b2, 30)
    for s in range(31):
        ref = oracles.power_sum_ref(b2, s)
        assert abs(ts[s] - ref) < 1e-9 * max(1, abs(ts[s]))


# ---------------------------------------------------------------------------
# local factors
# ---------------------------------------------------------------------------


def test_c2_prime_residues():
    a, _ = alpha_pair(LEVEL15_PROFILE)
    # n = 1 mod 4 and n = 2 mod 4 give 1 regardless of delta
    for n in (1, 5, 9, 13, 2, 6, 10, 18):
        assert abs(c2_prime(a, n) - 1) < 1e-12


def test_c2_doubleprime_residues():
    a, ap = alpha_pair(LEVEL15_PROFILE)
    for n in (1, 5, 9, 17):
        assert c2_doubleprime(a, n) == 0
    for n in (2, 6, 10, 14):
        assert c2_doubleprime(a, n) == 0
    assert abs(c2_doubleprime(a, 3) - a) < 1e-12
    assert abs(c2_doubleprime(ap, 7) - ap) < 1e-12


def test_lemma_style_equal_branches():
    # for n = 1, 2 mod 4 the two first-kind values agree exactly
    a, ap = alpha_pair(LEVEL15_PROFILE)
    for n in range(1, 60):
        if n % 4 in (1, 2):
            assert c2_prime(a, n) == c2_prime(ap, n) == 1


def test_cp_s_branches():
    # p = 3, b_3 = -1 at level 15
    delta = -1 / math.sqrt(3)
    assert abs(cp_s(delta, 3, 18) - SQRT2 * delta) < 1e-12
    assert abs(cp_s(delta, 3, 3) - 1) < 1e-12  # v_3(u) = 1, h = 0
    assert cp_s(delta, 3, 7) == 0


def test_cp_0_values():
    delta = 0.0  # b_7 = 0 at level 15
    assert cp_0(delta, 7, 3) == 1
    assert cp_0(delta, 7, 7) == 1  # v_p(u) = 1, h = 0 -> b_0
    # n = 49: h = 1, u = 1, so b_1 - b_0 * kronecker(-1, 7)/sqrt(7)
    want = delta - (-1) / math.sqrt(7)
    assert abs(cp_0(delta, 7, 49) - want) < 1e-12


@given(st.integers(-4, 4), st.integers(1, 5))
def test_cp_0_b_sequence_matches_closed_form(bp, h):
    # the recurrence behind cp_0 agrees with the binomial closed form
    for p in (7, 13):
        delta = bp / math.sqrt(p)
        got = cp_0(delta, p, p ** (2 * h) * p)  # v_p(u) = 1 branch: plain b_h
        assert abs(got - oracles.chebyshev_like_ref(delta, h)) < 1e-9


def test_chebyshev_degeneration():
    # delta = 2 collapses the sequence to h + 1
    for h in range(6):
        assert abs(oracles.chebyshev_like_ref(2.0, h) - (h + 1)) < 1e-12
        got = cp_0(2.0, 7, 7 ** (2 * h + 1))
        assert abs(got - (h + 1)) < 1e-12


# ---------------------------------------------------------------------------
# K products against the exact-radical table
# ---------------------------------------------------------------------------


def test_table_of_local_products():
    for n, want in TABLE_K1.items():
        k1 = local_K(LEVEL15_PROFILE, "K1", n)
        k2 = local_K(LEVEL15_PROFILE, "K2", n)
        assert abs(k1 - want) < 1e-9, n
        assert abs(k2 - complex(want).conjugate()) < 1e-9, n


def test_local_product_needs_eigenvalue():
    prof = LiftProfile(level=15, eigen={2: -1, 3: -1, 5: 1})
    with pytest.raises(MissingEigenvalueError):
        local_K(prof, "K1", 49 * 2)
    # first power of a good prime never needs its eigenvalue
    assert abs(local_K(prof, "K1", 7)) == 0


def test_local_product_rejects_bad_kind():
    with pytest.raises(ValueError):
        local_K(LEVEL15_PROFILE, "K3", 5)


def test_local_product_of_the_second_kind_is_gone():
    # the second-kind product at 2 is a test oracle now, not a kind
    with pytest.raises(ValueError, match="unknown local product"):
        local_K(LEVEL15_PROFILE, "K2'", 5)


@pytest.mark.parametrize("name", ["f1_f2_diagnostic", "global_factor", "kronecker_gate"])
def test_float_diagnostics_left_the_package(name):
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(halfint, name)
    assert name not in halfint.__all__


def test_second_kind_product_against_the_first():
    # both products share their odd-prime terms, and at a 2-adic unit
    # n = 3 mod 4 the terms at 2 are α₂ and α₂ − (2, n)₂/√2; at n = 1, 2
    # mod 4 the second kind vanishes, and it needs n >= 1 as local_K does
    a, _ = alpha_pair(LEVEL15_PROFILE)
    for n in range(1, 60):
        k2 = local_K_doubleprime(LEVEL15_PROFILE, n)
        if n % 4 in (1, 2):
            assert k2 == 0
        elif n % 4 == 3:
            eps = hilbert(2, n, 2)
            k1 = local_K(LEVEL15_PROFILE, "K1", n)
            assert abs(k2 * (a - eps / SQRT2) - a * k1) < 1e-12, n
    with pytest.raises(ValueError):
        local_K_doubleprime(LEVEL15_PROFILE, 0)


# ---------------------------------------------------------------------------
# gate and global factors
# ---------------------------------------------------------------------------


def test_gate_truth_table():
    assert kronecker_gate(LEVEL15_PROFILE, 3)
    assert not kronecker_gate(LEVEL15_PROFILE, 7)
    assert kronecker_gate(LEVEL15_PROFILE, 17)
    with pytest.raises(ValueError):
        kronecker_gate(LEVEL15_PROFILE, 12)


def test_gate_forces_zero_products():
    # whenever the gate fails on the square-free part, K1 vanishes
    for n in range(2, 24):
        core = oracles.squarefree_part_ref(n)
        if not kronecker_gate(LEVEL15_PROFILE, core):
            assert abs(local_K(LEVEL15_PROFILE, "K1", n)) < 1e-12


def test_h_gates_each_core_without_a_second_square_free_test(monkeypatch):
    # the sieve already knows each core is square-free, so assemble_h hands
    # the gate the core's discriminant and never tests a core again
    def refuse(t):
        raise AssertionError(f"square-free test of the sieved core {t}")

    monkeypatch.setattr(lift, "is_squarefree", refuse)
    assert assemble_h(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25).coeffs == LEVEL15_H


def test_global_factors():
    g = LEVEL15_G
    prof = LEVEL15_PROFILE
    values = {t: global_factor(prof, g, LEVEL15_G4, t) for t in (2, 3, 5, 15, 17, 23)}
    assert abs(values[2] - (-(8 ** -0.25))) < 1e-9
    assert abs(values[3] - 2**-0.5 * 3**-0.25) < 1e-9
    assert abs(values[5] - 5**-0.25) < 1e-9
    assert abs(values[15] - (-(15 ** -0.25))) < 1e-9
    assert values[17] == 0
    assert abs(values[23] - 23**-0.25) < 1e-9
    signs = [1 if values[t] > 0 else -1 for t in (2, 3, 5, 15, 23)]
    assert signs == [-1, 1, 1, -1, 1]
    with pytest.raises(ValueError):
        global_factor(prof, g, LEVEL15_G4, 7)


# ---------------------------------------------------------------------------
# the two-element basis diagnostic
# ---------------------------------------------------------------------------


def test_diagnostic_pair_structure():
    f1, f2 = f1_f2_diagnostic(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25)
    h = assemble_h(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25)
    ratio = None
    for n in range(1, 26):
        diff = f2[n] - f1[n]
        if LEVEL15_G[n] == 0:
            assert abs(diff) < 1e-9
        else:
            r = diff / float(LEVEL15_G[n])
            ratio = ratio if ratio is not None else r
            assert abs(r - ratio) < 1e-9
        assert abs(SQRT2 * (f1[n] + f2[n]) - float(h[n])) < 1e-9
    # difference proportional to g with a purely imaginary constant
    assert abs(ratio.real) < 1e-12 and abs(abs(ratio.imag) - SQRT7 / SQRT2) < 1e-9


def test_diagnostic_difference_in_plus_space():
    f1, f2 = f1_f2_diagnostic(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25)
    for n in range(1, 26):
        if n % 4 in (1, 2):
            assert abs(f1[n] - f2[n]) < 1e-12


def test_ratio_identity():
    # at a square-free index r = 3 mod 4 and its quadruple, the
    # coefficient ratios differ exactly by one alpha quotient
    f1, f2 = f1_f2_diagnostic(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 12)
    a, ap = alpha_pair(LEVEL15_PROFILE)
    lhs = f1[12] / f2[12]
    rhs = (a / ap) * (f1[3] / f2[3])
    assert abs(lhs - rhs) < 1e-12
    import halfint.numth as numth

    eps = numth.hilbert(2, 3, 2)
    want = (a - eps / SQRT2) / (ap - eps / SQRT2)
    assert abs(f1[3] / f2[3] - want) < 1e-12


def test_diagnostic_requires_deep_theta():
    with pytest.raises(PrecisionError):
        f1_f2_diagnostic(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 26)


# prime levels and levels of two, three and four primes, up to 144 classes
# at N = 1155
ORACLE_LEVELS = (11, 15, 19, 35, 37, 57, 67, 105, 195, 231, 285, 1155)


@pytest.mark.parametrize("level", ORACLE_LEVELS)
def test_h_matches_the_float_pair(level):
    # the global factor read off g and the local products reach
    # h = √2·(f₁ + f₂) without the recursion of assemble_h
    run = kohnen_basis(JobConfig(level=level, prec=120))
    f1, f2 = f1_f2_diagnostic(run["g"], run["g4"], run["profile"], 120)
    h = run["h"]
    assert h.coeffs
    for n in range(1, 121):
        assert abs(SQRT2 * (f1[n] + f2[n]) - h[n]) <= 1e-9 * max(1, abs(h[n])), n


# ---------------------------------------------------------------------------
# exact assembly of h
# ---------------------------------------------------------------------------


def test_level15_h_gold():
    h = assemble_h(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25)
    assert h.coeffs == LEVEL15_H
    assert all(type(v) is int for v in h.coeffs.values())


@st.composite
def lift_cases(draw, max_prec=80, dense=False):
    """A random integer g deep enough for the drawn precision, and a valid
    profile: odd square-free level, sign eigenvalues b_p there whose
    involution signs -b_p multiply to -1, an eigenvalue at 2, and
    eigenvalues at every odd good prime the Hecke step may reach.  g has
    at most 40 nonzero coefficients, or with `dense` one at every index."""
    odd_primes = st.sampled_from([3, 5, 7, 11, 13])
    primes = draw(st.lists(odd_primes, min_size=1, max_size=3, unique=True))
    level = math.prod(primes)
    signs = [draw(st.sampled_from([1, -1])) for _ in primes[1:]]
    signs.insert(0, -math.prod(signs))
    prec = draw(st.integers(1, max_prec))
    eigen = {p: -w for p, w in zip(primes, signs)}
    eigen |= {
        p: draw(st.integers(-9, 9))
        for p in (3, 5, 7, 11, 13, 17, 19)
        if p * p <= prec and p not in eigen
    }
    eigen[2] = draw(st.integers(-6, 6))
    profile = LiftProfile(level=level, eigen=eigen)
    if dense:
        rng = draw(st.randoms(use_true_random=False))
        coeffs = {n: rng.randint(-20, 20) for n in range(1, 4 * prec + 1)}
    else:
        coeffs = draw(
            st.dictionaries(st.integers(1, 4 * prec), st.integers(-20, 20), max_size=40)
        )
    return QExpansion(4 * prec, coeffs), profile, prec


@given(lift_cases())
def test_h_halving_exact_for_every_integer_g(case):
    # the Fraction oracle halves at the power-sum tier and scans for a
    # non-integer; agreement shows that halving is exact for any integer g
    g, profile, prec = case
    assert assemble_h(*deep_split(g), profile, prec).coeffs == oracles.assemble_h_ref(
        g, profile, prec
    )


@given(lift_cases(max_prec=400, dense=True))
def test_h_from_g_and_g4_matches_reference_on_dense_series(case):
    # every index of every core carries a coefficient, so the core walk
    # meets every branch: the power sums, level primes and Hecke steps
    g, profile, prec = case
    assert assemble_h(*deep_split(g), profile, prec).coeffs == oracles.assemble_h_ref(
        g, profile, prec
    )


def test_h_level_prime_above_good_prime_matches_reference():
    # a dense g and square parts 15 and 21, where a level prime (5, 7)
    # sits above the good prime 3: the recursion peels the level prime
    # first, the reference takes the Hecke step at 3 first
    profile = LiftProfile(35, {2: -1, 3: 2, 5: -1, 7: 1, 11: -4, 13: 2, 17: -2, 19: 0})
    g = QExpansion(2000, {n: 7919 * n % 23 - 11 for n in range(1, 2001)})
    h = assemble_h(*deep_split(g), profile, 500)
    assert h.coeffs == oracles.assemble_h_ref(g, profile, 500)
    assert (h[225], h[441]) == (36, -36)


def test_h_examples_by_hand():
    h = assemble_h(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25)
    # square part 4, core 3 mod 4: power-sum branch
    assert h[12] == LEVEL15_G[3] * (-3 - 1) == -4
    # square-free index 17 reads the theta coefficient at 68, which vanishes
    assert h[17] == 2 * LEVEL15_G4[17] == 2 * LEVEL15_G[68] == 0


def test_h_gate_vanishing():
    from halfint.numth import squarefree_split

    h = assemble_h(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 25)
    for n in range(1, 26):
        core, _ = squarefree_split(n)
        if not kronecker_gate(LEVEL15_PROFILE, core):
            assert h[n] == 0


def test_tier_consistency_at_s_zero():
    # for square-free n = 3 mod 4 the power-sum branch at s = 0 equals
    # the direct square-free branch
    b2 = LEVEL15_PROFILE.eigenvalue(2)
    ts = power_sums(b2, 1)
    import halfint.numth as numth

    for n in (3, 15, 23):
        eps = numth.hilbert(2, n, 2)
        assert ts[1] - eps * ts[0] == b2 - 2 * eps


def test_h_precision_guard():
    with pytest.raises(PrecisionError):
        assemble_h(LEVEL15_G, LEVEL15_G4, LEVEL15_PROFILE, 26)
    with pytest.raises(PrecisionError):
        assemble_h(truncate(LEVEL15_G, 24), LEVEL15_G4, LEVEL15_PROFILE, 25)


def test_h_missing_eigenvalue():
    prof = LiftProfile(level=15, eigen={2: -1, 3: -1, 5: 1})
    g = QExpansion(400, dict(LEVEL15_G.coeffs))
    with pytest.raises(MissingEigenvalueError):
        assemble_h(*deep_split(g), prof, 100)


def test_h_deeper_indices_use_hecke_tier():
    # degree-49 extension: a_49 and a_98 must derive from a_1 and a_2
    # (the theta series is padded with zeros past 100 purely to let the
    # assembly run; the asserted relations only touch honest data)
    g = QExpansion(400, dict(LEVEL15_G.coeffs))
    h = assemble_h(*deep_split(g), LEVEL15_PROFILE, 100)
    assert h[49] == h[1] * (0 - (-1))  # kronecker(-1, 7) = -1
    assert h[98] == h[2] * (0 - (-1))
    assert h[2] == -4 and h[98] == -4
