"""Acceptance suite: one test per delivery criterion.

Each test prints a single PASS line on success (run with ``pytest -s``
to see them).  Tolerances are stated inline: coefficient identities are
exact integer equalities, floating-point diagnostics are compared to
1e-9 absolute error.
"""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles

from halfint.brandt import Eigenform, _unit_mass, cuspidal_eigenlines
from halfint.cli import JobConfig, cmd_basis, main
from halfint.commands import cmd_theta
from halfint.errors import (
    EvenRootNumberError,
    PrecisionError,
    ZeroFormError,
)
from halfint.lift import power_sums
from halfint.localfactors import local_K
from halfint.numth import hilbert, prime_factors, squarefree_part
from halfint.qexp import QExpansion
from halfint.theta import hecke_check, kohnen_form, ternary_theta, trace_zero_lattice
from oracles import global_factor

SQRT2 = math.sqrt(2.0)
SQRT7 = math.sqrt(7.0)

GOLD_G_15 = {
    3: 1, 8: -2, 15: -1, 20: 2, 23: 2, 27: -1, 32: 2, 35: -2, 47: -2,
    48: -2, 60: 2, 72: 2, 75: 1, 80: -2, 83: 2, 87: 2, 92: -4,
}
GOLD_H_15 = {2: -4, 3: 1, 5: 4, 8: 2, 12: -4, 15: 3, 18: 4, 20: -2, 23: -6}

GOLD_THETA_PRINCIPAL = {
    8: 2, 12: 1, 15: 1, 20: 1, 23: 4, 27: 2, 32: 4, 35: 2, 47: 8, 48: 3,
    60: 1, 63: 6, 68: 6, 72: 4, 80: 5, 83: 4, 87: 4, 92: 10, 95: 6,
}
GOLD_THETA_OTHER = {
    3: 1, 12: 1, 20: 3, 23: 6, 27: 1, 32: 6, 47: 6, 48: 1, 60: 3, 63: 6,
    68: 6, 72: 6, 75: 1, 80: 3, 83: 6, 87: 6, 92: 6, 95: 6,
}

TABLE_K1 = {
    2: 2, 3: (1 + 1j * SQRT7) / 2, 4: 0, 5: SQRT2, 6: 0, 7: 0,
    8: (-1 + 1j * SQRT7) / SQRT2, 9: 0, 10: 0, 11: 0, 12: -SQRT2, 13: 0,
    14: 0, 15: (-3 + 1j * SQRT7) / (2 * SQRT2), 16: 0, 17: 2,
    18: -2 / math.sqrt(3), 19: 0, 20: (-1 + 1j * SQRT7) / 2, 21: 0, 22: 0,
    23: (-3 + 1j * SQRT7) / SQRT2,
}


def test_criterion_1_level15_gold_basis():
    start = time.monotonic()
    payload = json.loads(cmd_basis(JobConfig(level=15, prec=100, fmt="json")))
    elapsed = time.monotonic() - start
    g = {int(n): int(c) for n, c in payload["g"]["coeffs"].items()}
    h = {int(n): int(c) for n, c in payload["h"]["coeffs"].items()}
    assert g == GOLD_G_15  # exact; absent keys are exact zeros
    assert {n: c for n, c in h.items() if n <= 23} == GOLD_H_15
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS level-15 basis: g exact through q^92, "
        f"h exact through q^23, {elapsed:.1f}s (< 60s)"
    )


def test_criterion_2_class_thetas_and_swap():
    payload = json.loads(cmd_theta(JobConfig(level=15, prec=96, fmt="json")))
    thetas = [
        {int(n): int(c) for n, c in t["coeffs"].items()} for t in payload["thetas"]
    ]
    # Convention: constant term dropped, counts halved (one per ±v pair),
    # principal class listed first.
    assert thetas == [GOLD_THETA_PRINCIPAL, GOLD_THETA_OTHER]

    # Relabeling the two ideal classes permutes the theta list and flips
    # the sign of the raw eigenvector combination g, nothing else.
    from halfint.lattice import eichler_order
    from halfint.quat import algebra_ramified_at
    from halfint.brandt import ideal_classes

    class_set = ideal_classes(eichler_order(algebra_ramified_at([5]), 15))
    line = cuspidal_eigenlines(class_set)[0]
    raw = kohnen_form(line, 96)
    swapped_vector = tuple(reversed(line.vector))
    swapped = oracles.series_sum(
        (weight, ternary_theta(trace_zero_lattice(order), 96))
        for weight, order in zip(swapped_vector, reversed(class_set.rights))
    )
    assert swapped == raw.coeffs  # theta sum is label-invariant
    flipped = Eigenform(class_set=class_set, vector=(-1, 1), eigs={})
    assert kohnen_form(flipped, 96) == raw.scale(-1)
    print(
        "\nACCEPTANCE 2 PASS class thetas exact through q^95; "
        "class swap flips the sign of g only"
    )


def test_criterion_3_local_factor_table(level15_run):
    profile = level15_run["profile"]
    worst = 0.0
    for n in range(2, 24):
        k1 = local_K(profile, "K1", n)
        k2 = local_K(profile, "K2", n)
        worst = max(worst, abs(k1 - TABLE_K1[n]))
        worst = max(worst, abs(k2 - TABLE_K1[n].conjugate()))
    assert worst < 1e-9
    assert abs(local_K(profile, "K1", 3) - (1 + 1j * SQRT7) / 2) < 1e-9
    assert abs(local_K(profile, "K1", 18) - (-2 / math.sqrt(3))) < 1e-9
    assert abs(local_K(profile, "K1", 13)) < 1e-9
    print(
        f"\nACCEPTANCE 3 PASS K1/K2 table n=2..23 at level 15, "
        f"max abs error {worst:.2e} (< 1e-9)"
    )


def test_criterion_4_global_factor_structure(level15_run):
    g, g4 = level15_run["g"], level15_run["g4"]
    profile = level15_run["profile"]
    assert global_factor(profile, g, g4, 17) == 0.0
    signs = [global_factor(profile, g, g4, t) for t in (2, 3, 5, 15, 23)]
    pattern = ["-" if value < 0 else "+" for value in signs]
    assert pattern == ["-", "+", "+", "-", "+"]
    print(
        "\nACCEPTANCE 4 PASS A_F(17) = 0 and sign pattern of "
        "A_F(2,3,5,15,23) is (-, +, +, -, +)"
    )


def _matmul(A, B):
    size = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def test_criterion_5_property_suite(pipeline_runs):
    notes = []
    for level, run in sorted(pipeline_runs.items()):
        g, h = run["g"], run["h"]
        profile = run["profile"]
        class_set = run["line"].class_set
        line = run["line"]

        # (a) Kohnen vanishing of g
        assert g.kohnen
        assert all(n % 4 in (0, 3) for n in g.coeffs)

        # (b) degree matrices: identity at 1, row sums, commutativity
        size = class_set.h
        identity = tuple(
            tuple(int(i == j) for j in range(size)) for i in range(size)
        )
        assert class_set.brandt(1) == identity
        good = [p for p in (2, 3, 5, 7, 11, 13) if level % p][:3]
        for p in good:
            for row in class_set.brandt(p):
                assert sum(row) == p + 1
        for i in range(len(good)):
            for j in range(i + 1, len(good)):
                A = class_set.brandt(good[i])
                B = class_set.brandt(good[j])
                assert _matmul(A, B) == _matmul(B, A)

        # (c) exact mass formula
        mass = Fraction(*_unit_mass(class_set.unit_counts))
        assert mass == oracles.eichler_mass_ref(class_set.alg.discriminant, level)

        # (d) Hecke recursion on g and h at the smallest good prime
        p = next(q for q in (3, 5, 7, 11, 13) if level % q)
        try:
            hecke_check(g, line, p)
            hecke_check(h, line, p)
            hecke_note = f"hecke p={p}"
        except PrecisionError:
            # p*p exceeds the precision 40 window: vacuously true, noted.
            hecke_note = f"hecke p={p} vacuous at prec 40"

        # (e) h is integral
        assert all(type(v) is int for v in h.coeffs.values())

        # (f) tier-1/tier-2 agreement at s = 0
        ts = power_sums(profile.eigenvalue(2), 2)
        for n in range(3, 41, 4):
            if squarefree_part(n) != n:
                continue
            eps = hilbert(2, n, 2)
            tier1 = g[n] * (profile.eigenvalue(2) - 2 * eps)
            tier2 = g[n] * (ts[1] - eps * ts[0])
            assert tier1 == tier2 == h[n]
        notes.append(f"N={level} ({hecke_note})")

    print(
        "\nACCEPTANCE 5 PASS property suite at prec 40: "
        + "; ".join(notes)
    )


def _conic_mod64(a, b):
    """Primitive solvability of z^2 = a x^2 + b y^2 over Z/64."""
    r = np.arange(64, dtype=np.int64)
    squares = np.zeros(64, dtype=bool)
    squares[r * r % 64] = True
    ax = (a % 64) * r * r % 64
    by = (b % 64) * r * r % 64
    odd = (r % 2) == 1
    c = (ax[odd][:, None] + by[None, :]) % 64
    if squares[c].any():
        return True
    c = (ax[~odd][:, None] + by[odd][None, :]) % 64
    return bool(squares[c].any())


def _conic_modp2(a, b, p):
    """Primitive solvability of z^2 = a x^2 + b y^2 over Z/p^2, p odd."""
    p2 = p * p
    r = np.arange(p2, dtype=np.int64)
    sq = r * r % p2
    squares = np.zeros(p2, dtype=bool)
    squares[sq] = True
    unit = (r % p) != 0
    # x a unit: each distinct value of a x^2 against each of b y^2
    ax = np.unique((a % p2) * sq[unit] % p2)
    by = np.unique((b % p2) * sq % p2)
    if squares[(ax[:, None] + by[None, :]) % p2].any():
        return True
    # x = 0 mod p makes a x^2 = 0 mod p^2, so y must be a unit
    return bool(squares[(b % p2) * sq[unit] % p2].any())


def test_criterion_6_symbol_and_power_sum_oracles():
    # Hilbert symbols against conic solvability, memoized on square classes.
    memo = {}
    checked = 0
    for a in range(-50, 51):
        if a == 0:
            continue
        for b in range(-50, 51):
            if b == 0:
                continue
            sa, sb = squarefree_part(a), squarefree_part(b)
            lo, hi = min(sa, sb), max(sa, sb)
            places = sorted({2, *prime_factors(abs(sa * sb))} | {3})
            for p in places:
                key = (lo, hi, p)
                if key not in memo:
                    if p == 2:
                        memo[key] = _conic_mod64(lo, hi)
                    else:
                        memo[key] = _conic_modp2(lo, hi, p)
                expected = 1 if memo[key] else -1
                assert hilbert(a, b, p) == expected
                checked += 1
            # product formula over all places
            product = -1 if (a < 0 and b < 0) else 1
            for p in sorted({2, *prime_factors(abs(sa * sb))}):
                product *= hilbert(a, b, p)
            assert product == 1

    # Integer power sums against floating powers of the quadratic roots.
    # For |b2| > 2*sqrt(2) the roots leave the unit circle and the sums
    # reach ~7e19 at s = 30, so the 1e-9 tolerance is applied relative to
    # the magnitude (absolute for values of size <= 1).
    worst = 0.0
    for b2 in range(-5, 6):
        ts = power_sums(b2, 30)
        root = (b2 + cmath.sqrt(complex(b2 * b2 - 8))) / 2
        conj = (b2 - cmath.sqrt(complex(b2 * b2 - 8))) / 2
        for s in range(31):
            approx = root**s + conj**s
            worst = max(worst, abs(ts[s] - approx) / max(1.0, abs(ts[s])))
    assert worst < 1e-9
    print(
        f"\nACCEPTANCE 6 PASS {checked} Hilbert-symbol/conic comparisons on "
        f"|a|,|b| <= 50 + product formula; power sums s<=30, |b2|<=5, "
        f"max relative error {worst:.2e} (< 1e-9)"
    )


def test_criterion_7_negative_controls(tmp_path, monkeypatch, capsys):
    # Even functional equation: both involution signs -1 at level 15,
    # requested through an external eigenvalue file with b_3 = b_5 = +1.
    nf = tmp_path / "even.txt"
    nf.write_text("3 1\n5 1\n")
    from halfint.cli import kohnen_basis

    with pytest.raises(EvenRootNumberError):
        kohnen_basis(JobConfig(level=15, newform_file=str(nf)))
    assert main(["basis", "--level", "15", "--newform-file", str(nf)]) == 3
    capsys.readouterr()

    # Zero lift: a synthetic zero eigenvector really does produce the zero
    # series, and the front end reports it with exit code 2.
    import halfint.cli as cli_mod
    from halfint.lattice import eichler_order
    from halfint.quat import algebra_ramified_at
    from halfint.brandt import ideal_classes

    class_set = ideal_classes(eichler_order(algebra_ramified_at([5]), 15))
    zero_line = Eigenform(class_set=class_set, vector=(0, 0), eigs={})
    zero_series = kohnen_form(zero_line, 48)
    assert not zero_series.coeffs

    def synthetic(eigenform, prec):
        return kohnen_form(zero_line, prec)

    monkeypatch.setattr(cli_mod, "kohnen_form", synthetic)
    assert main(["basis", "--level", "15", "--prec", "12"]) == 2
    err = capsys.readouterr().err
    assert "zero" in err.lower()
    print(
        "\nACCEPTANCE 7 PASS even-root-number config exits 3 "
        "(EvenRootNumber); synthetic zero eigenvector exits 2 (ZeroForm); "
        "the nonzero path is criterion 1"
    )


# stdout digests of whole commands, each run as `python -m halfint` in a
# fresh process with no cache directory: cold bases at the large levels
# (JSON and text), bases at precision 1000 whose h reads g4 (g at 4m,
# counted on the trace-zero parts of the orders) at N=15, 35 and 105,
# degree matrices counted past degree 13 at N=67 and N=105, theta series
# of trace-zero lattices with den > 1 at N=285, and the float
# local-factor path in text and JSON
PINNED_OUTPUTS = {
    "basis --level 179 --prec 100 --format json":
        "19370e2b2d787450410eb73c4dfe0c5208dd5c2dfa7099ec4b0efe4a8a43a702",
    "basis --level 231 --prec 100 --format json":
        "b3bb5c077d61efae403df91a64bf6ca04b1e987ec42ebf65490bd1ff7e879801",
    "basis --level 285 --prec 100 --format json":
        "cd27d0ce9c0c42ab036947aacdf4bb4a1df5feba9b267f030185681dfbb25937",
    "basis --level 15 --prec 1000":
        "9055290bea0f6714def812f36fbbe2d2213cd5bf716bc7c5578e788d3b58b4dc",
    "basis --level 35 --prec 1000 --format json":
        "fbe39120b3e3a4436045f0e0f90ce2ab4874a001d76954b460d96c2a8edbfa61",
    "basis --level 105 --prec 1000 --format json":
        "fe4e6cbd9a10b60a6a3bd2572af7a8deb704d95cf0d83cb2a79d4076036e13d8",
    "basis --level 285 --prec 100":
        "a8d0aede74dae73751dc222b933a6fba6729d5ef48eefad58fb9242e3d9354b9",
    # the newform of level 339, which a 3-old line hid by default while
    # each subset was searched on its own class set
    "basis --level 339 --prec 100":
        "5d6fbc4217fba68dc582d4d7d574d7d8203470fe7f3cc6022e0fd1b6c6aef768",
    # four level primes (3, 5, 7, 11): eight sign vectors in one refinement
    "basis --level 1155 --prec 30 --format json --selector 1":
        "0e35f33f7cc9d1f1a54c5f910b4f919d800e77c0dcddd316039d9ac896553198",
    "basis --level 1155 --prec 30 --format json --selector 2":
        "769a8235be25fef19763ece716580a94b71c9896bf799ff273d42d33314abb12",
    "brandt --level 67 --nmax 20 --format json":
        "595f82b1a82f74f50a8822db01cb6a8aed15f780b9d365d0b0baee6be7f35564",
    "brandt --level 105 --nmax 20 --format json":
        "cad6d7b637cb664fce232971e53d7cae73c58b7d6ceb7507beab2b12f62ba703",
    "theta --level 285 --prec 100 --format json":
        "5964543c60a0fb7be42ef05e1b88ec9ede8abe7c4da00e7d7791d5bbdea506db",
    "localfactors --level 15":
        "44010653a74639499d8b8a124d66f6792ee0434189a9aaa51a3ccfa6b6cf0a70",
    "localfactors --level 105 --format json":
        "b3946ec729bd8b4e14d5a68dbd21ccc443bda9818eaf27c428c88f962d6e26b2",
}


def _halfint(argv, **env_extra):
    """`python -m halfint ARGV` in a fresh process, with no cache directory
    in its environment and `env_extra` added to it."""
    env = {k: v for k, v in os.environ.items() if k != "HALFINT_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "halfint", *argv], env=env, capture_output=True
    )


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS))
def test_pinned_outputs(argv):
    proc = _halfint(argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_OUTPUTS[argv]


# line 2 at N=141 is hosted by the algebra ramified at 47: its class set is
# counted to 31 (the profile of --prec 1000) before the match asks for
# B(47), the permutation by the two-sided prime over 47, whose classes are
# found by the keys the class search counted; digest recorded before B(47)
# was built so, when the pass to 47 counted it
SELECTED_141 = "820f8eb153a302aa4a70317268e669aaebfd2a1e7697be1c2244644018dc76ab"


def test_deep_host_builds_its_ramified_degree_cold_and_warm(tmp_path):
    argv = ["basis", "--level", "141", "--prec", "1000", "--selector", "2",
            "--cache-dir", str(tmp_path)]
    for run in ("cold", "warm"):
        proc = _halfint(argv)
        assert (proc.returncode, proc.stderr) == (0, b""), run
        assert hashlib.sha256(proc.stdout).hexdigest() == SELECTED_141, run


# the large levels that have no basis: N=197, 255 and 465 have no rational
# newform whose signs admit an algebra (exit 3).  At 255 and 465 a 3-old
# line has admissible signs on its subset's own class set, but the maximal
# order of discriminant N, which the search refines, holds no old form
FAILURE_LINES = {
    197: (3, "error: no rational sign-compatible eigenline exists at this level"),
    255: (3, "error: no rational sign-compatible eigenline exists at this level"),
    465: (3, "error: no rational sign-compatible eigenline exists at this level"),
}


@pytest.mark.parametrize("level", sorted(FAILURE_LINES))
def test_failure_lines_at_the_large_levels(level):
    proc = _halfint(["basis", "--level", str(level), "--prec", "100", "--format", "json"])
    code, line = FAILURE_LINES[level]
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert proc.stderr.decode() == line + "\n"


# N = 231 has one rational newform; the 3-old line with the same signs on
# the class set of the algebra ramified at 11 is no candidate
def test_old_line_at_231_is_no_candidate():
    proc = _halfint(["basis", "--level", "231", "--prec", "100", "--selector", "1"])
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode() == "error: selector index 1 out of range 0..0\n"


# a newform file that pins the old line's signs searches the same reference
# class set, so it finds no line there either
def test_old_line_at_231_is_not_found_by_pinning_its_signs(tmp_path):
    nf = tmp_path / "old.txt"
    nf.write_text("3 -1\n7 -1\n11 1\n")
    argv = ["basis", "--level", "231", "--prec", "100", "--newform-file", str(nf)]
    proc = _halfint(argv)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode() == (
        "error: external eigenvalues conflict with every computed eigenline\n"
    )


# at two primes the search set is ramified at the smaller one, and holds
# no 3-old line: a newform file with the newform's signs at N = 339 selects
# it (stdout as the pinned default run), and N = 267 keeps two lines
def test_newform_file_at_339_selects_the_newform(tmp_path):
    nf = tmp_path / "new.txt"
    nf.write_text("3 -1\n113 1\n")
    proc = _halfint(["basis", "--level", "339", "--prec", "100", "--newform-file", str(nf)])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_OUTPUTS[
        "basis --level 339 --prec 100"
    ]


def test_old_line_at_267_is_no_candidate():
    proc = _halfint(["basis", "--level", "267", "--prec", "100", "--selector", "2"])
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode() == "error: selector index 2 out of range 0..1\n"


# every line at N = 195, digests recorded from a search that refined each
# subset on its own class set: the hosts are {3}, {5}, {3, 5, 13} and
# {3, 5, 13}, so two lines move off the search class set and two stay
SELECTED_195 = [
    "21b47a750ba706959ba319f262bbbe0ab6f244bf0938272f1d46fa0edb95c28e",
    "daabc64712674c44717772c1aa9412726c55f0ee36336e3c61b87d6ba50a8121",
    "338668464ed86165726a2166e042ed0c64cbf50c2df0b08d89df636f0fba65f2",
    "78ccd849f04311fe08a7bdd6867039b6fb54e43dc5308e0f21dbb23c26107f7f",
]


@pytest.mark.parametrize("index", range(len(SELECTED_195)))
def test_every_line_at_195(index):
    proc = _halfint(["basis", "--level", "195", "--prec", "100", "--format", "json",
                     "--selector", str(index)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == SELECTED_195[index]


def test_two_cold_runs_at_195_agree(tmp_path):
    # stdout and every cache byte are the same in two fresh processes, the
    # move of the line to its host included
    outputs = []
    for run in ("a", "b"):
        cache = tmp_path / run
        proc = _halfint(["basis", "--level", "195", "--prec", "100", "--cache-dir", str(cache)])
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, {p.name: p.read_bytes() for p in cache.iterdir()}))
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0][1]) == ["brandt_a13_b15_N195.json", "brandt_a1_b3_N195.json"]


# help text stays argparse's own at a fixed terminal width
HELP_OUTPUTS = {
    "--help": "b24e42a0c5d5644d42029608e6e05d1cac2e3661c8a56e0e6b175f8ad40bfe9a",
    "basis --help": "f4f49317a2efd559353fc2b0305810e7ccfbf129f6166bb2041bf26370fa02f7",
    "brandt --help": "a7cd52aa7a7fbe0f6da61575731676b99dd7db3c0c7b71ef95025039d95b2400",
    "theta --help": "40763ba726e7218a63c324ce4c3a4564ef22a657ad0bf43abf989a85a2798c18",
    "localfactors --help": "ee59fbbd71a1d803e0b46d5c23afc44de2fa4f8f8eafb812882464be389f3f2e",
}


@pytest.mark.parametrize("argv", list(HELP_OUTPUTS))
def test_help_outputs(argv):
    proc = _halfint(argv.split(), COLUMNS="80")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == HELP_OUTPUTS[argv]


def test_usage_error_line():
    proc = _halfint(["basis", "--level", "x"])
    assert proc.returncode == 3
    assert proc.stderr.decode().splitlines()[-1] == (
        "error: argument --level: invalid int value: 'x'"
    )


# a cold run at N = 105 builds only the search class set, the algebra
# ramified at 3, 5 and 7, which hosts the level's one line
CACHE_105 = {
    "brandt_a7_b15_N105.json":
        "106ea7f90a26483e6e77d342fde631bc82cfc5282652011e8aab9138ff0dae32",
}


def test_cold_then_warm_cache_files_at_105(tmp_path):
    # the warm run prints the cold stdout and rewrites no cache file: a
    # rewrite replaces the file, so its inode or its mtime changes
    cache = tmp_path / "cache"
    argv = ["basis", "--level", "105", "--prec", "100", "--cache-dir", str(cache)]

    def files():
        return {
            p.name: (hashlib.sha256(p.read_bytes()).hexdigest(),
                     p.stat().st_ino, p.stat().st_mtime_ns)
            for p in cache.iterdir()
        }

    cold = _halfint(argv)
    assert cold.returncode == 0, cold.stderr
    written = files()
    assert {name: digest for name, (digest, _, _) in written.items()} == CACHE_105
    warm = _halfint(argv)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert files() == written
