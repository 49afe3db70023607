"""End-to-end and unit tests of the command-line front end."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from halfint.brandt import cuspidal_eigenlines, ideal_classes
from halfint.cli import (
    JobConfig,
    _odd_subsets,
    _select,
    cmd_basis,
    cmd_brandt,
    cmd_localfactors,
    cmd_theta,
    eigenline_candidates,
    ingest_newform,
    kohnen_basis,
    main,
)
from halfint.errors import (
    AmbiguousSelectorError,
    ConfigurationError,
    EvenRootNumberError,
    IrrationalEigenspaceError,
    NewformFileError,
    SelectorNotFoundError,
)
from halfint.lattice import eichler_order
from halfint.numth import prime_factors
from halfint.quat import algebra_ramified_at
from halfint.qexp import QExpansion

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
    assert {n: g[n] for n in LEVEL15_G} == {
        n: Fraction(c) for n, c in LEVEL15_G.items()
    }
    h = QExpansion.from_json_dict(payload["h"])
    assert {n: h[n] for n in LEVEL15_H} == {
        n: Fraction(c) for n, c in LEVEL15_H.items()
    }


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
# selector behavior (unit level, with stub candidates)
# ---------------------------------------------------------------------------


class _StubLine:
    def __init__(self, evs):
        self._evs = evs

    def eigenvalue(self, p):
        return self._evs[p]


class _StubCand:
    def __init__(self, evs):
        self.eigenform = _StubLine(evs)


def test_select_contract():
    cands = [_StubCand({2: -1, 3: 1}), _StubCand({2: -1, 3: -1})]
    assert _select(cands, None) == (0, cands[0])
    assert _select(cands, "1") == (1, cands[1])
    assert _select(cands, "2=-1,3=1") == (0, cands[0])
    with pytest.raises(AmbiguousSelectorError):
        _select(cands, "2=-1")
    with pytest.raises(SelectorNotFoundError):
        _select(cands, "7")
    with pytest.raises(SelectorNotFoundError):
        _select(cands, "2=9")
    with pytest.raises(SelectorNotFoundError):
        _select([], None)
    with pytest.raises(ConfigurationError):
        _select(cands, "nonsense")


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
    for content in ("2 -1 3", "x y", "4 1", "2 0.5", '{"2": "x"}'):
        bad.write_text(content)
        with pytest.raises(NewformFileError):
            ingest_newform(str(bad))
    with pytest.raises(NewformFileError):
        ingest_newform(str(tmp_path / "does_not_exist.txt"))


def test_ingest_conflicting_duplicate(tmp_path):
    bad = tmp_path / "dup.txt"
    bad.write_text("2 -1\n2 1\n")
    with pytest.raises(NewformFileError):
        ingest_newform(str(bad))


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


def test_pinned_odd_signs_restrict_the_search(tmp_path, capsys):
    nf = tmp_path / "odd.json"
    nf.write_text('{"3": -1, "5": 1}')
    cache = tmp_path / "cache"
    argv = ["brandt", "--level", "15", "--nmax", "2", "--format", "json",
            "--newform-file", str(nf), "--cache-dir", str(cache)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ramified_set"] == [5]
    assert sorted(p.name for p in cache.iterdir()) == ["brandt_a2_b5_N15.json"]


def _unpruned_candidates(level):
    """The search without sign pruning: every subset fully refined, then
    the lines with the wrong bad-prime signs dropped."""
    bad = prime_factors(level)
    out = []
    for ramified in _odd_subsets(bad):
        order = eichler_order(algebra_ramified_at(list(ramified)), level)
        for line in cuspidal_eigenlines(ideal_classes(order)):
            try:
                signs = {p: line.bad_sign(p) for p in bad}
            except IrrationalEigenspaceError:
                continue
            if all((signs[p] == 1) == (p in ramified) for p in bad):
                out.append((ramified, line))
    return out


@pytest.mark.parametrize("level", [11, 15, 21, 33, 35, 37])
def test_pruned_search_matches_unpruned_filter(level):
    small = (2, 3, 5, 7, 11, 13)
    want = [
        (ramified, line.vector, [line.eigenvalue(p) for p in small])
        for ramified, line in _unpruned_candidates(level)
    ]
    got = [
        (c.ramified, c.eigenform.vector, [c.eigenform.eigenvalue(p) for p in small])
        for c in eigenline_candidates(level)
    ]
    assert got == want


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

    def zero_form(eigenform, class_set, prec):
        return QExpansion(prec, {}, kohnen=True)

    monkeypatch.setattr(cli_mod, "kohnen_form", zero_form)
    assert main(["basis", "--level", "15", "--prec", "12"]) == 2
    assert "zero" in capsys.readouterr().err.lower()


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


def test_cache_reload_is_exact(tmp_path):
    cache = tmp_path / "cache"
    first = cmd_basis(JobConfig(level=15, prec=24, cache_dir=str(cache)))
    state = json.loads((cache / "brandt_a2_b5_N15.json").read_text())
    assert set(state) == {"classes", "unit_counts", "brandt"}
    assert state["unit_counts"] == [2, 6]
    second = cmd_basis(JobConfig(level=15, prec=24, cache_dir=str(cache)))
    assert first == second == BASIS_15_TEXT


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


def test_module_invocation_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "halfint.cli", "basis", "--level", "14"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "odd square-free" in proc.stderr
