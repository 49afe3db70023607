"""Tests for sparse exact q-expansions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from halfint.errors import PrecisionError
from halfint.qexp import QExpansion

# small sparse coefficient dictionaries with integer values
coeff_dicts = st.dictionaries(st.integers(0, 30), st.integers(-9, 9), max_size=6)


def test_basic_access():
    f = QExpansion(10, {3: 1, 8: -2})
    assert f[3] == 1
    assert f[5] == 0 and type(f[5]) is int
    assert f[10] == 0
    with pytest.raises(PrecisionError):
        f[11]
    with pytest.raises(ValueError):
        f[-1]


def test_zero_coefficients_dropped():
    f = QExpansion(10, {3: 0, 4: 1})
    assert f.support() == [4]
    assert bool(f)
    assert not QExpansion(10, {})


def test_coefficient_beyond_precision_rejected():
    with pytest.raises(ValueError):
        QExpansion(5, {6: 1})


def test_arithmetic():
    f = QExpansion(10, {1: 1, 4: 2})
    g = QExpansion(8, {1: -1, 3: 5})
    s = f + g
    assert s.prec == 8
    assert s[1] == 0 and s[3] == 5 and s[4] == 2
    d = f - g
    assert d[1] == 2 and d[3] == -5
    assert f.scale(3)[4] == 6


def test_truncate():
    f = QExpansion(10, {1: 1, 9: 3})
    t = f.truncate(5)
    assert t.prec == 5 and t.support() == [1]
    with pytest.raises(PrecisionError):
        f.truncate(11)


def test_kohnen_flag_validation():
    QExpansion(10, {3: 1, 8: 2}, kohnen=True)
    with pytest.raises(ValueError):
        QExpansion(10, {5: 1}, kohnen=True)
    with pytest.raises(ValueError):
        QExpansion(10, {6: 1}, kohnen=True)


def test_kohnen_flag_propagates():
    f = QExpansion(10, {3: 1}, kohnen=True)
    g = QExpansion(10, {4: 1}, kohnen=True)
    assert (f + g).kohnen
    assert (f - g).kohnen
    assert f.scale(3).kohnen
    assert f.truncate(5).kohnen
    plain = QExpansion(10, {3: 1})
    assert not (f + plain).kohnen


def test_leading_and_sign():
    f = QExpansion(10, {8: -2, 3: -1})
    assert f.leading() == (3, -1)
    assert f.scale(-1).leading() == (3, 1)
    assert QExpansion(5, {}).leading() is None


def test_non_int_coefficients_rejected():
    for bad in (Fraction(1, 2), 0.5, "1/2"):
        with pytest.raises(TypeError):
            QExpansion(5, {2: bad})
    with pytest.raises(TypeError):
        QExpansion(5, {2: 4}).scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        QExpansion.from_json_dict({"prec": 5, "coeffs": {"2": "1/2"}})
    assert all(type(v) is int for v in QExpansion(5, {2: 4}).coeffs.values())


def test_json_roundtrip_exact():
    f = QExpansion(20, {3: 1, 8: -12345678901234567890, 15: -7})
    data = f.to_json_dict()
    assert data["coeffs"]["8"] == -12345678901234567890
    assert data["coeffs"]["3"] == 1
    assert QExpansion.from_json_dict(data) == f
    assert list(data["coeffs"]) == ["3", "8", "15"]


def test_text_format():
    f = QExpansion(20, {3: 1, 8: -2})
    assert f.to_text() == "3 1\n8 -2"


@given(coeff_dicts, coeff_dicts)
def test_addition_matches_pointwise(a, b):
    f = QExpansion(30, a)
    g = QExpansion(30, b)
    s = f + g
    for n in range(31):
        assert s[n] == f[n] + g[n]


@given(coeff_dicts, st.integers(-5, 5))
def test_scale_matches_pointwise(a, c):
    f = QExpansion(30, a)
    g = f.scale(c)
    for n in range(31):
        assert g[n] == c * f[n]
