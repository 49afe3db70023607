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
    assert list(f.coeffs) == [4]
    assert not QExpansion(10, {}).coeffs


def test_coefficient_beyond_precision_rejected():
    with pytest.raises(ValueError):
        QExpansion(5, {6: 1})


def test_kohnen_flag_validation():
    QExpansion(10, {3: 1, 8: 2}, kohnen=True)
    with pytest.raises(ValueError):
        QExpansion(10, {5: 1}, kohnen=True)
    with pytest.raises(ValueError):
        QExpansion(10, {6: 1}, kohnen=True)


def test_kohnen_flag_propagates():
    f = QExpansion(10, {3: 1}, kohnen=True)
    assert f.scale(3).kohnen
    assert not QExpansion(10, {3: 1}).scale(3).kohnen


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
        QExpansion(5, {"2": "1/2"})  # a JSON object's key and a rational string
    assert all(type(v) is int for v in QExpansion(5, {2: 4}).coeffs.values())


def test_json_roundtrip_exact():
    f = QExpansion(20, {3: 1, 8: -12345678901234567890, 15: -7})
    data = f.to_json_dict()
    assert data["coeffs"]["8"] == -12345678901234567890
    assert data["coeffs"]["3"] == 1
    assert QExpansion(data["prec"], data["coeffs"]) == f
    assert list(data["coeffs"]) == ["3", "8", "15"]


def test_text_format():
    f = QExpansion(20, {3: 1, 8: -2})
    assert f.to_text() == "3 1\n8 -2"


@given(coeff_dicts, st.integers(-5, 5))
def test_scale_matches_pointwise(a, c):
    f = QExpansion(30, a)
    g = f.scale(c)
    for n in range(31):
        assert g[n] == c * f[n]
