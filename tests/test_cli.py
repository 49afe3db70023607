"""End-to-end and unit tests of the command-line front end."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from halfint import brandt, cli
from halfint.brandt import (
    ORDER_PRIMES,
    IdealClassSet,
    ideal_classes,
    matching_eigenline,
)
from halfint.cli import (
    JobConfig,
    _parse_plain,
    _select,
    cmd_basis,
    eigenline_candidates,
    kohnen_basis,
    main,
)
from halfint.commands import build_parser, cmd_brandt, cmd_localfactors, cmd_theta
from halfint.errors import (
    AmbiguousSelectorError,
    ConfigurationError,
    EvenRootNumberError,
    NewformFileError,
    SelectorNotFoundError,
)
from halfint.lattice import Lattice4
from halfint.numth import prime_factors
from halfint.pins import ingest_newform
from halfint.quat import QuaternionAlgebra
from halfint.qexp import QExpansion
from halfint.theta import sturm_bound

LEVEL15_G = {3: 1, 8: -2, 15: -1, 20: 2, 23: 2}
LEVEL15_H = {2: -4, 3: 1, 5: 4, 8: 2, 12: -4, 15: 3, 18: 4, 20: -2, 23: -6}

BASIS_15_TEXT = """\
level 15
algebra a=2 b=5 ramified 5
class_number 2
mass 4/3
unit_counts 2 6
ramified_set 5
w 3 1
w 5 -1
b 2 -1
b 3 -1
b 5 1
b 7 0
b 11 -4
b 13 -2
selector_index 0
g
3 1
8 -2
15 -1
20 2
23 2
h
2 -4
3 1
5 4
8 2
12 -4
15 3
18 4
20 -2
23 -6
"""


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_levels():
    for level in (14, 9, 1, -15, 45):
        with pytest.raises(ConfigurationError):
            JobConfig(level=level)


def test_config_rejects_bad_options():
    with pytest.raises(ConfigurationError):
        JobConfig(level=15, prec=0)
    with pytest.raises(ConfigurationError):
        JobConfig(level=15, fmt="yaml")
    with pytest.raises(ConfigurationError):
        JobConfig(level=15, workers=0)


# ---------------------------------------------------------------------------
# text and JSON serialization
# ---------------------------------------------------------------------------


def test_basis_text_gold():
    assert cmd_basis(JobConfig(level=15, prec=24)) == BASIS_15_TEXT


def test_basis_json_roundtrip():
    payload = json.loads(cmd_basis(JobConfig(level=15, prec=24, fmt="json")))
    assert payload["level"] == 15
    assert payload["algebra"] == {"a": 2, "b": 5, "ramified": [5]}
    assert payload["class_number"] == 2
    assert payload["mass"] == "4/3"
    assert payload["unit_counts"] == [2, 6]
    assert payload["ramified_set"] == [5]
    assert payload["involutions"] == {"3": 1, "5": -1}
    assert payload["eigenvalues"] == {
        "2": -1, "3": -1, "5": 1, "7": 0, "11": -4, "13": -2,
    }
    assert payload["selector_index"] == 0
    g = QExpansion.from_json_dict(payload["g"], kohnen=True)
    assert g.prec == 24
    assert {n: g[n] for n in LEVEL15_G} == LEVEL15_G
    h = QExpansion.from_json_dict(payload["h"])
    assert {n: h[n] for n in LEVEL15_H} == LEVEL15_H


def test_brandt_command():
    payload = json.loads(cmd_brandt(JobConfig(level=15, fmt="json"), nmax=5))
    assert payload["brandt"]["1"] == [[1, 0], [0, 1]]
    assert payload["brandt"]["2"] == [[2, 1], [3, 0]]
    assert payload["brandt"]["3"] == [[5, 2], [6, 1]]
    assert payload["brandt"]["5"] == [[1, 0], [0, 1]]
    text = cmd_brandt(JobConfig(level=15), nmax=2)
    assert "B(1)\n1 0\n0 1\nB(2)\n2 1\n3 0\n" in text
    with pytest.raises(ConfigurationError):
        cmd_brandt(JobConfig(level=15), nmax=0)


def test_theta_command():
    payload = json.loads(cmd_theta(JobConfig(level=15, prec=16, fmt="json")))
    thetas = payload["thetas"]
    assert len(thetas) == 2
    assert thetas[0]["coeffs"] == {"8": 2, "12": 1, "15": 1}
    assert thetas[1]["coeffs"] == {"3": 1, "12": 1}


def test_localfactors_command():
    out = cmd_localfactors(JobConfig(level=15, fmt="json"), 2, 6)
    rows = {row["n"]: row for row in json.loads(out)["local_factors"]}
    assert rows[2]["K1"][0] == pytest.approx(2.0, abs=1e-9)
    assert rows[2]["K1"][1] == pytest.approx(0.0, abs=1e-9)
    assert rows[3]["K1"] == [
        pytest.approx(0.5, abs=1e-9),
        pytest.approx(7**0.5 / 2, abs=1e-9),
    ]
    assert rows[3]["K2"][1] == pytest.approx(-(7**0.5) / 2, abs=1e-9)
    assert rows[4]["K1"] == [0.0, 0.0]
    text = cmd_localfactors(JobConfig(level=15), 2, 3)
    assert "n K1_re K1_im K2_re K2_im" in text


# ---------------------------------------------------------------------------
# selector behavior (unit level, with stub eigenlines)
# ---------------------------------------------------------------------------


class _StubLine:
    def __init__(self, evs):
        self._evs = evs

    def eigenvalue(self, p):
        return self._evs[p]


def test_select_contract():
    cands = [_StubLine({2: -1, 3: 1}), _StubLine({2: -1, 3: -1})]
    assert _select(cands, None, 15) == (0, cands[0])
    assert _select(cands, "1", 15) == (1, cands[1])
    assert _select(cands, "2=-1,3=1", 15) == (0, cands[0])
    with pytest.raises(AmbiguousSelectorError):
        _select(cands, "2=-1", 15)
    with pytest.raises(SelectorNotFoundError):
        _select(cands, "7", 15)
    with pytest.raises(SelectorNotFoundError):
        _select(cands, "2=9", 15)
    with pytest.raises(SelectorNotFoundError):
        _select([], None, 15)
    with pytest.raises(ConfigurationError):
        _select(cands, "nonsense", 15)
    # eigenvalues are indexed by primes, so a key that is not a prime is a
    # configuration error before any line is asked for an eigenvalue
    for selector in ("4=1", "0=1", "-3=1", "1=0", "2=-1,9=1"):
        with pytest.raises(ConfigurationError, match="is not a prime"):
            _select(cands, selector, 15)
    # refinement reaches the primes up to 60 and those dividing the level;
    # a key beyond them is refused before its primality is tested
    for selector in ("61=1", "2=-1,67=1", "100=1", "1000000000000000003=1"):
        with pytest.raises(ConfigurationError, match="is above 60 and does not divide"):
            _select(cands, selector, 15)
    # a prime given twice must have one value, as in a newform file
    assert _select(cands, "2=-1,3=1,3=1", 15) == (0, cands[0])
    for selector in ("2=1,2=-1", "3=1,2=-1,3=-1"):
        with pytest.raises(ConfigurationError, match="conflicting values at"):
            _select(cands, selector, 15)
    with_67 = [_StubLine({2: -1, 67: 1}), _StubLine({2: -1, 67: -1})]
    assert _select(with_67, "67=-1", 67) == (1, with_67[1])


def test_selector_through_pipeline():
    by_index = kohnen_basis(JobConfig(level=15, prec=12, selector="0"))
    by_prefix = kohnen_basis(JobConfig(level=15, prec=12, selector="2=-1,3=-1"))
    assert by_index["g"].coeffs == by_prefix["g"].coeffs
    with pytest.raises(SelectorNotFoundError):
        kohnen_basis(JobConfig(level=15, prec=12, selector="3"))


# ---------------------------------------------------------------------------
# newform files
# ---------------------------------------------------------------------------


def test_ingest_text_and_json(tmp_path):
    txt = tmp_path / "nf.txt"
    txt.write_text("# level 15 newform\n2 -1\n\n7 0\n")
    assert ingest_newform(str(txt)) == {2: -1, 7: 0}
    js = tmp_path / "nf.json"
    js.write_text('{"2": -1, "7": 0}')
    assert ingest_newform(str(js)) == {2: -1, 7: 0}


def test_ingest_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    for content in (
        "2 -1 3", "x y", "4 1", "2 0.5", '{"2": "x"}',
        '{"2": 0.5}', '{"2": true}', '{"2": [1]}', '{"2": null}',
    ):
        bad.write_text(content)
        with pytest.raises(NewformFileError):
            ingest_newform(str(bad))
    with pytest.raises(NewformFileError):
        ingest_newform(str(tmp_path / "does_not_exist.txt"))


def test_main_malformed_newform_value_exit_3(tmp_path, capsys):
    nf = tmp_path / "nf.json"
    nf.write_text('{"2": [1]}')
    assert main(["basis", "--level", "15", "--newform-file", str(nf)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed eigenvalue file")
    assert captured.err.count("\n") == 1


def test_long_newform_value_is_quoted_cut(tmp_path, capsys):
    # a JSON value of 100000 zeros is quoted by its first characters only
    nf = tmp_path / "zeros.json"
    nf.write_text('{"2": [' + ", ".join(["0"] * 100000) + "]}")
    assert main(["basis", "--level", "15", "--newform-file", str(nf)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed eigenvalue file {nf}: expected an integer, got "
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (300000 characters)\n"
    )


def test_long_newform_line_is_quoted_cut(tmp_path, capsys):
    # a text line of 100001 tokens is quoted by its first characters only
    nf = tmp_path / "zeros.txt"
    nf.write_text(" ".join(["0"] * 100001) + "\n")
    assert main(["basis", "--level", "15", "--newform-file", str(nf)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed eigenvalue file {nf}: expected 'p b_p', got "
        "'0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0... (200003 characters)\n"
    )


def test_main_newform_file_not_utf8_exit_3(tmp_path, capsys):
    nf = tmp_path / "nf.txt"
    nf.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(NewformFileError):
        ingest_newform(str(nf))
    assert main(["basis", "--level", "15", "--newform-file", str(nf)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {nf}: ")
    assert captured.err.count("\n") == 1


def test_ingest_accepts_a_byte_order_mark(tmp_path, capsys):
    # editors that write a UTF-8 byte-order mark give the same run as without
    argv = ["basis", "--level", "15", "--prec", "20", "--newform-file"]
    runs = []
    for name, text in (("nf.txt", "2 -1\n"), ("nf.json", '{"2": -1}')):
        for mark in ("", "\ufeff"):
            nf = tmp_path / f"{len(mark)}{name}"
            nf.write_text(mark + text, encoding="utf-8")
            assert ingest_newform(str(nf)) == {2: -1}
            assert main(argv + [str(nf)]) == 0
            runs.append(capsys.readouterr())
    assert all(run == runs[0] for run in runs) and runs[0].err == ""
    # bytes after the mark that are not UTF-8 are still refused
    nf = tmp_path / "bad.txt"
    nf.write_bytes(b"\xef\xbb\xbf2 \xff\n")
    assert main(argv + [str(nf)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {nf}: ")


def test_ingest_conflicting_duplicate(tmp_path, capsys):
    # a prime given two values is refused in either format; JSON keys are
    # read in file order, so the decoder does not merge them first
    for name, text in (("dup.txt", "2 -1\n2 1\n"), ("dup.json", '{"2": 1, "2": -1}')):
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(NewformFileError):
            ingest_newform(str(bad))
        assert main(["basis", "--level", "15", "--prec", "10", "--newform-file", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed eigenvalue file {bad}: conflicting values at 2\n"
    # a repeat with the same value stays accepted
    same = tmp_path / "same.json"
    same.write_text('{"2": -1, "2": -1}')
    assert ingest_newform(str(same)) == {2: -1}


def test_newform_key_above_the_trial_bound_exits_3_at_once(tmp_path, capsys):
    # this prime used to hang the run in trial division
    nf = tmp_path / "nf.txt"
    nf.write_text("1000000000000000009 1\n")
    start = time.perf_counter()
    assert main(["basis", "--level", "15", "--prec", "10", "--newform-file", str(nf)]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed eigenvalue file {nf}: 1000000000000000009 exceeds "
        "the trial-division bound 4294967296\n"
    )


def test_newform_prime_the_refinement_does_not_reach_is_left_out(tmp_path, capsys):
    # b_10007 = 1 is possible, but no line is asked for the degree-10007
    # matrix: the run used to hang counting it
    nf = tmp_path / "nf.txt"
    nf.write_text("10007 1\n")
    argv = ["basis", "--level", "11", "--prec", "10"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    start = time.perf_counter()
    assert main(argv + ["--newform-file", str(nf)]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr() == plain


def test_newform_value_above_the_hasse_bound_exits_3(tmp_path, capsys):
    # 201^2 = 40401 > 4 * 10007
    nf = tmp_path / "nf.txt"
    nf.write_text("10007 201\n")
    argv = ["basis", "--level", "11", "--prec", "10", "--newform-file", str(nf)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigenvalue 201 at 10007 breaks the Hasse bound b_p^2 <= 4p\n"


def test_empty_newform_file_falls_back_to_index(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with_file = kohnen_basis(
        JobConfig(level=15, prec=12, newform_file=str(empty))
    )
    without = kohnen_basis(JobConfig(level=15, prec=12))
    assert with_file["g"].coeffs == without["g"].coeffs
    assert with_file["selector_index"] == 0


def test_newform_file_filters_and_conflicts(tmp_path):
    ok = tmp_path / "ok.txt"
    ok.write_text("2 -1\n11 -4\n")
    run = kohnen_basis(JobConfig(level=15, prec=12, newform_file=str(ok)))
    assert run["g"][3] == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2 5\n")
    with pytest.raises(NewformFileError):
        kohnen_basis(JobConfig(level=15, prec=12, newform_file=str(bad)))


def test_even_root_number_rejected_before_any_work(tmp_path):
    # every subcommand stops before the search: no cache file is written
    nf = tmp_path / "even.txt"
    cache = tmp_path / "cache"
    config = JobConfig(level=15, prec=12, newform_file=str(nf), cache_dir=str(cache))
    for signs in ("3 1\n5 1\n", "3 -1\n5 -1\n"):
        nf.write_text(signs)
        for run in (kohnen_basis, cmd_brandt, cmd_theta, cmd_localfactors):
            with pytest.raises(EvenRootNumberError):
                run(config)
    assert not cache.exists()


def test_level_sign_not_pm1_rejected_before_any_work(tmp_path, capsys):
    # one level prime pinned to a value that is no sign: the search used to
    # run every subset before exiting with a vague conflict
    nf = tmp_path / "nf.txt"
    nf.write_text("3 5\n")
    cache = tmp_path / "cache"
    config = JobConfig(level=105, prec=12, newform_file=str(nf), cache_dir=str(cache))
    for run in (kohnen_basis, cmd_brandt, cmd_theta, cmd_localfactors):
        with pytest.raises(NewformFileError):
            run(config)
    assert main(["basis", "--level", "105", "--newform-file", str(nf),
                 "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigenvalue at 3 must be ±1 for a prime dividing the level\n"
    assert not cache.exists()


def test_pinned_odd_signs_restrict_the_search(tmp_path, capsys):
    nf = tmp_path / "odd.json"
    nf.write_text('{"3": -1, "5": 1}')
    cache = tmp_path / "cache"
    argv = ["brandt", "--level", "15", "--nmax", "2", "--format", "json",
            "--newform-file", str(nf), "--cache-dir", str(cache)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ramified_set"] == [5]
    # the search set (ramified at 3) and the line's host
    assert sorted(p.name for p in cache.iterdir()) == [
        "brandt_a1_b3_N15.json", "brandt_a2_b5_N15.json"
    ]


@pytest.mark.parametrize("level", [11, 15, 21, 33, 35, 37])
def test_pruned_search_matches_unpruned_filter(level):
    # each candidate, moved to its host, is the unpruned search's line
    bad = prime_factors(level)
    want = oracles.unpruned_candidates(level)
    got = eigenline_candidates(level)
    assert len(got) == len(want)
    for c, (ramified, line) in zip(got, want):
        assert tuple(p for p in bad if c.eigenvalue(p) == 1) == ramified
        assert [c.eigenvalue(p) for p in ORDER_PRIMES] == [
            line.eigenvalue(p) for p in ORDER_PRIMES
        ]
        assert matching_eigenline(c, line.class_set).vector == line.vector


@pytest.mark.parametrize("level", [15, 21, 33, 105, 195, 221, 231, 285])
def test_pinned_search_matches_the_filtered_search(level):
    # pins inside the refinement keep exactly the lines that a filter after
    # the unpinned search keeps, in the same order and on the same class set
    bad = prime_factors(level)

    def summary(line):
        host = tuple(p for p in bad if line.eigenvalue(p) == 1)
        return line.vector, line.class_set.alg.ramified, host

    for c in oracles.filtered_candidates(level, {}):
        signs = {p: c.eigenvalue(p) for p in bad}
        for pins in (
            signs,
            signs | {2: c.eigenvalue(2), 3: c.eigenvalue(3)},
            {2: c.eigenvalue(2)},
            {bad[0]: signs[bad[0]], 59: c.eigenvalue(59)},
            signs | {2: c.eigenvalue(2) + 1},
        ):
            want = oracles.filtered_candidates(level, pins)
            got = eigenline_candidates(level, pins=pins)
            assert list(map(summary, got)) == list(map(summary, want)), pins


def test_deep_pin_counts_the_search_set_once(tmp_path, monkeypatch, capsys):
    # an entry at 59 is pinned inside the search: the search set (ramified
    # at 3) counts its class pairs once, to 59, and its cache file keeps
    # B(59), while stdout is the run's without the file
    argv = ["basis", "--level", "15", "--prec", "30"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    passes = []
    original = IdealClassSet._count

    def counted(self, nmax):
        passes.append((self.alg.ramified, nmax))
        return original(self, nmax)

    monkeypatch.setattr(IdealClassSet, "_count", counted)
    nf = tmp_path / "nf.txt"
    nf.write_text("3 -1\n59 -4\n")
    cache = tmp_path / "cache"
    assert main(argv + ["--newform-file", str(nf), "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr() == plain
    assert [nmax for ramified, nmax in passes if ramified == (3,)] == [59]
    state = json.loads((cache / "brandt_a1_b3_N15.json").read_text())
    assert "59" in state["brandt"]


def test_deeply_nested_newform_file_exits_3(tmp_path, capsys):
    nf = tmp_path / "deep.json"
    nf.write_text('{"2": ' + "[" * 200000 + "]" * 200000 + "}")
    assert main(["basis", "--level", "15", "--newform-file", str(nf)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed eigenvalue file {nf}: JSON nested too deeply\n"


def test_newform_file_sign_out_of_range(tmp_path):
    nf = tmp_path / "signs.txt"
    nf.write_text("3 2\n5 -1\n")
    with pytest.raises(NewformFileError):
        kohnen_basis(JobConfig(level=15, prec=12, newform_file=str(nf)))


# ---------------------------------------------------------------------------
# exit codes through main()
# ---------------------------------------------------------------------------


def test_main_success(capsys):
    assert main(["basis", "--level", "15", "--prec", "24"]) == 0
    assert capsys.readouterr().out == BASIS_15_TEXT


def test_main_config_errors(capsys):
    assert main(["basis", "--level", "14"]) == 3
    assert "odd square-free" in capsys.readouterr().err
    assert main(["basis", "--level", "15", "--prec", "0"]) == 3
    assert main(["localfactors", "--level", "15", "--range", "nope"]) == 3
    assert main(["basis", "--level", "15", "--selector", "99"]) == 3
    capsys.readouterr()
    for key, argv in (("4", ["--selector", "4=1"]), ("0", ["--selector", "0=1"]),
                      ("-3", ["--selector=-3=1"])):
        assert main(["basis", "--level", "11", *argv]) == 3
        assert capsys.readouterr().err == f"error: selector key {key} is not a prime\n"
    # a level past the trial-division bound is refused before it is factored
    assert main(["basis", "--level", "4294967311", "--prec", "10"]) == 3
    assert capsys.readouterr().err == (
        "error: level 4294967311 exceeds the trial-division bound 4294967296\n"
    )


def test_selector_repeat_with_another_value_exits_3(capsys):
    # 2=-1 alone picks a line at N=15; 2=1 first must not be overridden
    assert main(["basis", "--level", "15", "--selector", "2=1,2=-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: selector has conflicting values at 2\n"


@pytest.mark.parametrize("key", ["1000000000000000003", "10007"])
def test_large_selector_key_exits_3_at_once(key, capsys):
    # these keys used to hang: one in trial division, one counting every
    # class pair to degree 10007
    start = time.perf_counter()
    assert main(["basis", "--level", "11", "--selector", f"{key}=1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: selector key {key} is above 60 and does not divide the level\n"
    )


def test_main_usage_errors_exit_3():
    with pytest.raises(SystemExit) as info:
        main(["basis"])  # missing --level
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        main(["basis", "--level", "15", "--format", "yaml"])
    assert info.value.code == 3


def test_main_even_root_number_exit_3(tmp_path, capsys):
    nf = tmp_path / "even.txt"
    nf.write_text("3 1\n5 1\n")
    assert main(
        ["basis", "--level", "15", "--newform-file", str(nf)]
    ) == 3
    assert "even" in capsys.readouterr().err


def test_main_zero_form_exit_2(monkeypatch, capsys):
    """A theta eigenvector summing to the zero series must exit with 2."""
    import halfint.cli as cli_mod

    def zero_form(eigenform, prec):
        return QExpansion(prec, {}, kohnen=True)

    monkeypatch.setattr(cli_mod, "kohnen_form", zero_form)
    assert main(["basis", "--level", "15", "--prec", "12"]) == 2
    assert "zero" in capsys.readouterr().err.lower()


# stdout digests of `basis --prec 1` and `--prec 2`, where g vanishes
# through the precision but not through the Sturm bound
STURM_OUTPUTS = {
    (11, 1): "223af3a4ccc1fec31baf5759162549d6f13d5d575799d02b4f9cbc1c726eda28",
    (11, 2): "223af3a4ccc1fec31baf5759162549d6f13d5d575799d02b4f9cbc1c726eda28",
    (15, 1): "9f1b87193c6d26ceff8ec6ba2e41cc33f22177bb56ebf85c62c4d71d21cc7b73",
    (15, 2): "61d3678894741f8aef2e443684fff2e28a6791363bcf119ad1eb68379c9aa080",
    (105, 1): "f77440bbcf808296c7b1b9df98fa98a5d6965ab96d5834e607abcc963cfe509c",
    (105, 2): "f77440bbcf808296c7b1b9df98fa98a5d6965ab96d5834e607abcc963cfe509c",
}


def _record_theta_counts(monkeypatch):
    """The precisions `_basis_pair` asks of kohnen_form and of
    deep_coefficients, in call order."""
    import halfint.cli as cli_mod

    calls = []
    for name in ("kohnen_form", "deep_coefficients"):
        original = getattr(cli_mod, name)

        def recorded(eigenform, prec, name=name, original=original):
            calls.append((name, prec))
            return original(eigenform, prec)

        monkeypatch.setattr(cli_mod, name, recorded)
    return calls


@pytest.mark.parametrize("level, prec", sorted(STURM_OUTPUTS))
def test_basis_counts_through_the_sturm_bound_only_when_g_vanishes(
    level, prec, monkeypatch, capsys
):
    # g vanishes through prec < B, so g is counted once more through B for
    # its sign, and g4 is counted through prec as always
    calls = _record_theta_counts(monkeypatch)
    assert main(["basis", "--level", str(level), "--prec", str(prec)]) == 0
    bound = sturm_bound(level)
    assert prec < bound
    assert calls == [("kohnen_form", prec), ("kohnen_form", bound), ("deep_coefficients", prec)]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STURM_OUTPUTS[level, prec]


def _basis_json(level, prec, cache):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["basis", "--level", str(level), "--prec", str(prec), "--format", "json",
             "--cache-dir", str(cache)]
        )
    return code, json.loads(out.getvalue()) if code == 0 else None


@pytest.mark.parametrize("level, prec", [(37, 1), (85, 2), (105, 1), (141, 3), (345, 3)])
def test_low_precision_basis_is_the_deep_basis_truncated(level, prec, tmp_path):
    # g vanishes through prec but not through the Sturm bound: the run
    # exits 0, and its metadata, g and h are those of --prec 100
    code, deep = _basis_json(level, 100, tmp_path)
    assert code == 0
    code, low = _basis_json(level, prec, tmp_path)
    assert code == 0
    assert not low["g"]["coeffs"]
    for key in ("g", "h"):
        coeffs = {n: a for n, a in deep.pop(key)["coeffs"].items() if int(n) <= prec}
        assert low.pop(key) == {"prec": prec, "coeffs": coeffs}
    assert low == deep


def test_g_vanishing_through_the_sturm_bound_exits_2(capsys):
    # the rank-2 newform of level 389 has central L-value zero, and g
    # vanishes through B(389) = 293
    assert main(["basis", "--level", "389", "--prec", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the theta eigenform vanishes identically: the selected newform "
        "has central L-value zero and carries no Kohnen lift\n"
    )


def test_basis_counts_g4_on_the_trace_zero_parts(monkeypatch, capsys):
    # g is nonzero through 24, so both series are counted through 24 only
    calls = _record_theta_counts(monkeypatch)
    assert main(["basis", "--level", "15", "--prec", "24"]) == 0
    assert calls == [("kohnen_form", 24), ("deep_coefficients", 24)]
    assert capsys.readouterr().out == BASIS_15_TEXT


def test_workers_flag_accepted(capsys):
    assert main(["basis", "--level", "15", "--prec", "24", "--workers", "4"]) == 0
    assert capsys.readouterr().out == BASIS_15_TEXT


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------


def test_cache_cold_and_warm_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = [
        "basis", "--level", "15", "--prec", "24",
        "--cache-dir", str(cache), "--format", "json",
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    files = sorted(p.name for p in cache.iterdir())
    assert files == ["brandt_a1_b3_N15.json", "brandt_a2_b5_N15.json"]
    cold_cache = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out
    warm_cache = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert warm_cache == cold_cache


def test_cold_run_counts_each_class_set_once(tmp_path, monkeypatch, capsys):
    # the refinement plans the pinned primes and ORDER_PRIMES together, so
    # one counting pass serves every degree a cold basis run asks for; the
    # class sets are held, so no two of them can share an id.  N = 105 has
    # three primes, and its only line lies on the search class set (the
    # algebra ramified at 3, 5 and 7), so that is the one set searched
    passes = []
    searched = []
    original = IdealClassSet._count

    def counted(self, nmax):
        passes.append(self)
        return original(self, nmax)

    monkeypatch.setattr(IdealClassSet, "_count", counted)
    monkeypatch.setattr(cli, "ideal_classes", lambda order: searched.append(order)
                        or ideal_classes(order))
    argv = ["basis", "--level", "105", "--prec", "100", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(passes) == len(set(map(id, passes))) == 1
    assert [order.alg.ramified for order in searched] == [(3, 5, 7)]
    assert [p.name for p in tmp_path.iterdir()] == ["brandt_a7_b15_N105.json"]


def test_deep_run_counts_the_host_once(tmp_path, monkeypatch, capsys):
    # at --prec 1000 the profile reaches 31 > KEY_DEGREE: the host (the
    # algebra ramified at 5) is planned to 31 before the match, so the
    # match and the profile share one counting pass
    passes = []
    original = IdealClassSet._count

    def counted(self, nmax):
        passes.append(self)
        return original(self, nmax)

    monkeypatch.setattr(IdealClassSet, "_count", counted)
    argv = ["basis", "--level", "15", "--prec", "1000", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("level 15\nalgebra a=2 b=5 ramified 5\n")
    assert passes
    assert len(passes) == len(set(map(id, passes)))


def test_cold_run_at_195_builds_the_reference_and_the_host(tmp_path, monkeypatch, capsys):
    # the default line at N = 195 is hosted by the algebra ramified at 3:
    # the search builds the reference set, and the selected line moves to
    # its host's set, so exactly two class sets are built
    searched = []
    monkeypatch.setattr(cli, "ideal_classes", lambda order: searched.append(order)
                        or ideal_classes(order))
    argv = ["basis", "--level", "195", "--prec", "100", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("level 195\nalgebra a=1 b=3 ramified 3\n")
    assert [order.alg.ramified for order in searched] == [(3, 5, 13), (3,)]


def test_a_line_its_host_does_not_hold_exits_4(monkeypatch, capsys):
    # the host's refinement must hold exactly one line with the selected
    # line's eigenvalues; anything else is an internal failure, never a
    # silent pick
    original = brandt.cuspidal_eigenlines

    def hostless(class_set, pins=None):
        lines = original(class_set, pins=pins)
        return lines if class_set.alg.ramified == (3, 5, 13) else []

    monkeypatch.setattr(brandt, "cuspidal_eigenlines", hostless)
    assert main(["basis", "--level", "195", "--prec", "10"]) == 4
    assert capsys.readouterr().err == (
        "error: 0 eigenlines of the algebra ramified at 3 match the selected newform\n"
    )


@pytest.mark.parametrize("level", [15, 21, 33, 35, 85, 105, 165, 195, 221, 273])
def test_reference_search_matches_the_per_subset_search(level):
    # the search class set, ramified at the largest odd-sized prefix of the
    # level's primes, names the same lines, in the same order, as a search
    # of every subset's own class set; moved to its host, each is that
    # subset's line
    bad = prime_factors(level)
    search = tuple(bad[: len(bad) - 1 + len(bad) % 2])

    def summary(line, host):
        return host, [line.eigenvalue(p) for p in (*ORDER_PRIMES, *bad)]

    want = oracles.eigenline_candidates_ref(level)
    got = eigenline_candidates(level)
    assert all(line.class_set.alg.ramified == search for line in got)
    assert [
        summary(line, tuple(p for p in bad if line.eigenvalue(p) == 1)) for line in got
    ] == [summary(line, line.class_set.alg.ramified) for line in want]
    for line, old in zip(got, want):
        assert matching_eigenline(line, old.class_set).vector == old.vector


@pytest.mark.parametrize("level", [11, 15, 21, 105, 195])
def test_search_builds_one_class_set(level, monkeypatch):
    searched = []
    monkeypatch.setattr(cli, "ideal_classes", lambda order: searched.append(order)
                        or ideal_classes(order))
    eigenline_candidates(level)
    assert len(searched) == 1


def test_cold_run_counts_each_lattice_once(tmp_path, monkeypatch, capsys):
    # the class search counts each class and right order to KEY_DEGREE, and
    # those counts serve as the Brandt pairs (0, j) and (j, j); the only
    # lattices counted twice are the degree-1 equivalence tests conj(J) I_i
    # whose neighbour J became the class j, counted again as the pair (i, j)
    best = {}
    recounts = []
    original = Lattice4.norm_counts

    def counted(self, bound):
        if self in best:
            recounts.append((bound, best[self]))
        best[self] = max(best.get(self, 0), bound)
        return original(self, bound)

    monkeypatch.setattr(Lattice4, "norm_counts", counted)
    argv = ["basis", "--level", "105", "--prec", "100", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert not [pair for pair in recounts if pair[0] <= pair[1]]
    assert len(recounts) <= 6
    assert all(before == 1 for _, before in recounts)


def test_cache_env_variable(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HALFINT_CACHE_DIR", str(cache))
    assert main(["brandt", "--level", "15", "--nmax", "2"]) == 0
    capsys.readouterr()
    assert (cache / "brandt_a2_b5_N15.json").is_file()


def test_cache_flag_overrides_env(tmp_path, monkeypatch, capsys):
    env_cache = tmp_path / "envcache"
    flag_cache = tmp_path / "flagcache"
    monkeypatch.setenv("HALFINT_CACHE_DIR", str(env_cache))
    assert main(
        ["brandt", "--level", "15", "--nmax", "2", "--cache-dir", str(flag_cache)]
    ) == 0
    capsys.readouterr()
    assert not env_cache.exists()
    assert (flag_cache / "brandt_a2_b5_N15.json").is_file()


def test_truncated_cache_file_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["basis", "--level", "11", "--prec", "24", "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    path = cache / "brandt_a1_b11_N11.json"
    cold_bytes = path.read_bytes()
    path.write_bytes(cold_bytes[:100])
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out
    assert path.read_bytes() == cold_bytes
    path.write_text('{"classes": []}\n')
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out
    assert path.read_bytes() == cold_bytes
    assert [p.name for p in cache.iterdir()] == [path.name]


def test_deeply_nested_cache_file_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["basis", "--level", "15", "--prec", "24", "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    cold_cache = {p.name: p.read_bytes() for p in cache.iterdir()}
    for name in cold_cache:
        (cache / name).write_text("[" * 200000)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == cold_cache


def _bump_b2(state):
    state["brandt"]["2"][0][0] += 1


def _bump_b3(state):
    # 3 divides the level, so only the weighted symmetry catches this
    state["brandt"]["3"][0][1] += 1


def _negative_b3(state):
    # weighted symmetry holds (6 * -1 == 2 * -3); only the sign check catches this
    state["brandt"]["3"] = [[5, -1], [-3, 1]]


def _add_wrong_b1(state):
    state["brandt"]["1"] = [[1, 0], [0, 2]]


def _swap_unit_counts(state):
    state["unit_counts"].reverse()


def _permute_classes(state):
    # a consistent file with the two classes swapped: every matrix invariant
    # still holds, but the classes are not in the order the search finds
    state["classes"].reverse()
    state["unit_counts"].reverse()
    for n, B in state["brandt"].items():
        state["brandt"][n] = [row[::-1] for row in B[::-1]]


def _huge_degree_key(state):
    # B(1) = I stored at degree 10**18 keeps every invariant but the bound
    # on the degree; checking its row sum would factor 10**18
    h = len(state["unit_counts"])
    state["brandt"][str(10**18)] = [[int(i == j) for j in range(h)] for i in range(h)]


def _b4_as_b2_squared(state):
    # B(2)^2 = B(4) + 2 B(1) commutes with everything and is weighted-
    # symmetric; only the row sum sigma(4) = 7 catches it
    B = state["brandt"]["2"]
    h = len(B)
    state["brandt"]["4"] = [
        [sum(B[i][k] * B[k][j] for k in range(h)) for j in range(h)] for i in range(h)
    ]


def _brandt_as_list(state):
    state["brandt"] = []


def _brandt_as_string(state):
    state["brandt"] = "x"


def _assert_tampering_is_recomputed(
    cache, capsys, level, name, tamper, command=("basis", "--prec", "24")
):
    """A cold run of `command`, `tamper` applied to the cache file `name`,
    then a warm run: same stdout, and the file rewritten to the cold bytes."""
    argv = [*command, "--level", str(level), "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    path = cache / name
    cold_bytes = path.read_bytes()
    state = json.loads(cold_bytes)
    tamper(state)
    path.write_text(json.dumps(state, sort_keys=True) + "\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out
    assert path.read_bytes() == cold_bytes


@pytest.mark.parametrize(
    "tamper",
    [
        _bump_b2,
        _bump_b3,
        _negative_b3,
        _add_wrong_b1,
        _swap_unit_counts,
        _permute_classes,
        _huge_degree_key,
        _b4_as_b2_squared,
        _brandt_as_list,
        _brandt_as_string,
    ],
)
def test_tampered_cache_file_is_recomputed(tmp_path, capsys, tamper):
    _assert_tampering_is_recomputed(
        tmp_path / "cache", capsys, 15, "brandt_a2_b5_N15.json", tamper
    )


def _class0_over_class1(state):
    # at N = 37 every class has two units, so the unit counts still agree
    state["classes"][1] = state["classes"][0]


def _class1_over_class0(state):
    state["classes"][0] = state["classes"][1]


def _non_canonical_class(state):
    # the same lattice on another basis
    rows = state["classes"][1]["rows"]
    rows[0] = [x + y for x, y in zip(rows[0], rows[1])]


def _scaled_class(state):
    # the same lattice with content left in
    c = state["classes"][1]
    c["den"] *= 2
    c["rows"] = [[2 * x for x in row] for row in c["rows"]]


def _drop_last_class(state):
    # consistent but incomplete: only the mass shows it
    state["classes"].pop()
    state["unit_counts"].pop()
    state["brandt"] = {}


def _class_of_another_order(state):
    # (1 + i) I is a left ideal of (1 + i) O (1 + i)^-1, not of O; it keeps
    # the right order of I and is equivalent to no stored class
    alg, c = QuaternionAlgebra(2, 37), state["classes"][1]
    rows = [alg.mul((1, 1, 0, 0), row) for row in c["rows"]]
    moved = Lattice4.from_int_rows(alg, c["den"], rows)
    state["classes"][1] = {"den": moved.den, "rows": [list(row) for row in moved.rows]}


@pytest.mark.parametrize(
    "tamper",
    [_class0_over_class1, _class1_over_class0, _non_canonical_class, _scaled_class,
     _class_of_another_order, _drop_last_class],
)
def test_tampered_cache_classes_are_recomputed(tmp_path, capsys, tamper):
    _assert_tampering_is_recomputed(
        tmp_path / "cache", capsys, 37, "brandt_a2_b37_N37.json", tamper
    )


def _non_commuting_b2(state):
    # N = 67 has e_1 = e_2, so row sums, signs and the weighted symmetry
    # still hold; only commutativity with the other degrees catches this
    B = state["brandt"]["2"]
    B[1][1] += 1
    B[2][2] += 1
    B[1][2] -= 1
    B[2][1] -= 1


def _non_permutation_b37(state):
    # B(37) + I commutes with every degree matrix; only the shape required
    # at a ramified prime catches this
    for i, row in enumerate(state["brandt"]["37"]):
        row[i] += 1


def _identity_at(state, q):
    # the identity is a weighted-symmetric permutation commuting with every
    # degree; at a ramified q only the searched counts of row 0 and the
    # diagonal catch it, and at an unramified q dividing the level the row
    # sum 2q + 1 does
    h = len(state["unit_counts"])
    state["brandt"][str(q)] = [[int(i == j) for j in range(h)] for i in range(h)]


def _identity_b3(state):
    _identity_at(state, 3)


def _identity_b5(state):
    _identity_at(state, 5)


def _identity_b19(state):
    # 19 > KEY_DEGREE, so no searched count covers it
    _identity_at(state, 19)


@pytest.mark.parametrize(
    "level, name, tamper",
    [
        (67, "brandt_a1_b67_N67.json", _non_commuting_b2),
        (37, "brandt_a2_b37_N37.json", _non_permutation_b37),
        (57, "brandt_a1_b3_N57.json", _identity_b3),
        (57, "brandt_a1_b3_N57.json", _identity_b19),
        (195, "brandt_a1_b3_N195.json", _identity_b5),
    ],
)
def test_tampered_cache_matrices_are_recomputed(tmp_path, capsys, level, name, tamper):
    _assert_tampering_is_recomputed(tmp_path / "cache", capsys, level, name, tamper)


def _b2_as_b18(state):
    # 18 = 2 * 9 shares the prime 3 with the level, so no row sum is known
    # there, and B(2) commutes with every degree and is weighted-symmetric;
    # only B(18) = B(2) B(9) catches it
    state["brandt"]["18"] = state["brandt"]["2"]


def test_tampered_composite_degree_is_recomputed(tmp_path, capsys):
    _assert_tampering_is_recomputed(
        tmp_path / "cache", capsys, 15, "brandt_a2_b5_N15.json", _b2_as_b18,
        command=("brandt", "--nmax", "20"),
    )


def test_warm_run_rewrites_no_cache_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = ["basis", "--level", "15", "--prec", "24", "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    stamps = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
    replaced = []
    monkeypatch.setattr(os, "replace", lambda *args: replaced.append(args))
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out
    assert replaced == []
    assert {p.name: p.stat().st_mtime_ns for p in cache.iterdir()} == stamps


def test_unreadable_cache_file_is_a_miss(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = ["basis", "--level", "11", "--prec", "24", "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out

    def unreadable(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(type(cache), "read_text", unreadable)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out


def test_cache_dir_under_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    argv = ["basis", "--level", "11", "--prec", "24",
            "--cache-dir", str(blocker / "sub")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write cache file")
    assert captured.err.count("\n") == 1


def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    # a non-empty directory in the file's place makes the final rename fail
    (cache / "brandt_a1_b11_N11.json").mkdir(parents=True)
    (cache / "brandt_a1_b11_N11.json" / "keep").write_text("")
    argv = ["basis", "--level", "11", "--prec", "24", "--cache-dir", str(cache)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: cannot write cache file")
    assert [p.name for p in cache.iterdir()] == ["brandt_a1_b11_N11.json"]


def test_cache_reload_is_exact(tmp_path):
    cache = tmp_path / "cache"
    first = cmd_basis(JobConfig(level=15, prec=24, cache_dir=str(cache)))
    state = json.loads((cache / "brandt_a2_b5_N15.json").read_text())
    assert set(state) == {"classes", "unit_counts", "brandt"}
    assert state["unit_counts"] == [2, 6]
    second = cmd_basis(JobConfig(level=15, prec=24, cache_dir=str(cache)))
    assert first == second == BASIS_15_TEXT


def test_localfactors_caches_the_degrees_it_builds(tmp_path, capsys):
    # HI = 400 makes the profile reach the primes up to 20
    cache = tmp_path / "cache"
    argv = ["localfactors", "--level", "15", "--range", "2:400", "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    state = json.loads((cache / "brandt_a2_b5_N15.json").read_text())
    assert {"17", "19"} <= set(state["brandt"])
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out


# ---------------------------------------------------------------------------
# byte-identical outputs (digests recorded before the pipeline was merged)
# ---------------------------------------------------------------------------

OUTPUT_SHA256 = {
    (15, "brandt --nmax 13 --format json"):
        "65f15f34fb111effba5bb3ce6fd0170a39775991b030f5496fabe3e0f8933c7c",
    (15, "theta --prec 100 --format json"):
        "aa37a9e422ac8d64c6d2056f4432256e59e3b6fc6de1a5ccacd1bf61631cc648",
    (15, "localfactors --format json"):
        "3f0e70695dc56d23b2e2ed84224a46ea26292b5ac72f6c6ee0e9ec274704499a",
    (15, "basis --prec 60"):
        "a9dcbe6dea09757ec6f14d8f316363375416e2ef35b329539abcd25ff36574da",
    (21, "brandt --nmax 13 --format json"):
        "f602a0c2cd35d0d39dd74b3b02ae015ad83d7b1e4d5d822406285a5add19af85",
    (21, "theta --prec 100 --format json"):
        "c7bf3808aa6a986932edcb4dd6bd045678d545a63fcc6bce595a1ba4fd920e48",
    (21, "localfactors --format json"):
        "10cbca4430e2c981e87c66f0a0cf17b656fb6919600c81947eb1c6f3a598f09c",
    (21, "basis --prec 60"):
        "04b79a231956df5bb2c031e03aee3733276e2fdd0a5965a9b4059cfd82003d96",
}


@pytest.mark.parametrize("level, args", sorted(OUTPUT_SHA256))
def test_output_digests(level, args, capsys, monkeypatch):
    monkeypatch.delenv("HALFINT_CACHE_DIR", raising=False)
    assert main(args.split() + ["--level", str(level)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == OUTPUT_SHA256[level, args]


# ---------------------------------------------------------------------------
# module execution
# ---------------------------------------------------------------------------


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "halfint.cli", "basis", "--level", "15",
         "--prec", "24"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == BASIS_15_TEXT


def test_package_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "halfint", "basis", "--level", "11",
         "--prec", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("level 11\n")


@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_unwritable_stdout_exits_3_without_a_traceback(target):
    # a pipe whose reader is gone fails the write with EPIPE, a full device
    # with ENOSPC; either is one error line, and the exit flush stays quiet
    if target == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
        reason = "Broken pipe"
    else:
        if not Path(target).exists():
            pytest.skip(f"no {target} here")
        stdout = os.open(target, os.O_WRONLY)
        reason = "No space left on device"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "halfint", "basis", "--level", "15", "--prec", "20"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot write output: {reason}\n"


# modules a basis job must not load: the import, the argv parse and the
# run pay for each of them in every fresh process
HEAVY_MODULES = (
    "dataclasses", "inspect", "fractions", "decimal", "numbers", "argparse",
    "gettext", "locale", "halfint.localfactors", "halfint.commands", "halfint.pins",
)

IMPORT_PROBE = f"""
import contextlib, io, sys
heavy = set({HEAVY_MODULES!r})
import halfint.cli
print(sorted(heavy & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()):
    code = halfint.cli.main(["basis", "--level", "15", "--prec", "20"])
print(code, sorted(heavy & set(sys.modules)))
import halfint
print(halfint.local_K.__module__, halfint.f1_f2_diagnostic.__module__)
print(halfint.ingest_newform.__module__)
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # every job is a fresh process, so what the import pulls in is paid on
    # every run; -S keeps site hooks of the environment out of the check.
    # The float diagnostics still resolve from the package, on first use.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[]\n0 []\nhalfint.localfactors halfint.localfactors\nhalfint.pins\n"
    )


def test_package_exports_resolve():
    import halfint

    namespace = {}
    exec("from halfint import *", namespace)
    assert all(name in namespace for name in halfint.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        halfint.nonexistent


def test_no_module_uses_fractions():
    # the library is integer-only, a ratio being an integer pair: no module
    # imports fractions at any depth, and none names Fraction
    src = Path(__file__).resolve().parents[1] / "src" / "halfint"
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if {"fractions", "Fraction"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# ---------------------------------------------------------------------------
# the direct argv parse against argparse
# ---------------------------------------------------------------------------

# option -> (values argparse takes, values it refuses or that start with -)
_OPTION_VALUES = {
    "--level": (["15", "11", " 7 ", "1_5"], ["x", "", "-15", "15.0"]),
    "--selector": (["0", "2=-1,3=1", "", "a b", "basis"], ["-1"]),
    "--prec": (["20", "0", "+4"], ["x", "-3"]),
    "--format": (["text", "json"], ["yaml", "JSON"]),
    "--cache-dir": (["cache", "basis"], ["-c"]),
    "--newform-file": (["nf.txt"], ["--level"]),
    "--workers": (["1", "4"], ["four"]),
    "--nmax": (["3"], ["x"]),
    "--range": (["2:23", "nope"], ["-1:3"]),
}


@st.composite
def _argvs(draw):
    """argvs over the four subcommands (and one unknown): options in any
    order, some missing, repeated, abbreviated, =-joined or without a
    value, and values valid or not."""
    command = draw(st.sampled_from(["basis", "brandt", "theta", "localfactors", "frob"]))
    own = {"brandt": "--nmax", "localfactors": "--range"}.get(command)
    pool = [o for o in _OPTION_VALUES if o not in ("--nmax", "--range") or o == own]
    names = draw(st.permutations(pool))[: draw(st.integers(0, 5))]
    if "--level" not in names and draw(st.integers(0, 3)):
        names.insert(draw(st.integers(0, len(names))), "--level")
    if not draw(st.integers(0, 7)):
        names.append(draw(st.sampled_from(sorted(_OPTION_VALUES))))  # maybe foreign
    if names and not draw(st.integers(0, 7)):
        names.append(draw(st.sampled_from(names)))  # given twice
    argv = [command]
    for option in names:
        valid, refused = _OPTION_VALUES[option]
        value = draw(st.sampled_from(valid if draw(st.integers(0, 7)) else refused))
        form = draw(st.sampled_from(["plain"] * 20 + ["abbrev", "joined", "bare", "no-value"]))
        if form == "abbrev":
            option = option[: draw(st.integers(3, len(option) - 1))]
        if form == "joined":
            argv.append(f"{option}={value}")
        elif form == "bare":
            argv.append(value)
        elif form == "no-value":
            argv.append(option)
        else:
            argv += [option, value]
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_direct_parse_agrees_with_argparse(argv):
    parser = build_parser()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = None
    direct = _parse_plain(argv)
    if expected is None:
        assert direct is None, argv
    elif direct is not None:
        assert direct == expected, argv


def test_direct_parse_takes_the_plain_form():
    assert _parse_plain(["basis", "--prec", "20", "--level", "15"]) == {
        "command": "basis", "level": 15, "selector": None, "prec": 20, "fmt": "text",
        "cache_dir": None, "newform_file": None, "workers": 1,
    }
    assert _parse_plain(["localfactors", "--level", "15", "--range", "3:5"])["index_range"] == "3:5"
    assert _parse_plain(["brandt", "--level", "15"])["nmax"] == 10
    for argv in (["basis", "--level=15"], ["basis", "--lev", "15"], ["basis", "-h"],
                 ["basis", "--level", "15", "--level", "15"], ["basis", "--level", "-15"]):
        assert _parse_plain(argv) is None, argv


def test_module_invocation_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "halfint.cli", "basis", "--level", "14"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "odd square-free" in proc.stderr
