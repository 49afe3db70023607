"""Sparse exact q-expansions.

A QExpansion stores finitely many integer coefficients a_n (n >= 0) of a
series known through precision `prec`: coefficients with n <= prec and
n not stored are genuinely zero, anything past prec is unknown and
asking for it raises.  Every series the pipeline builds (class theta
series, g and h) has integer coefficients, so a coefficient that is not
an int (a Fraction, a float, a "num/den" string) is rejected.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from .errors import PrecisionError
from .value import Value


def _normalize(coeffs) -> MappingProxyType:
    """A read-only view of a private copy: the nonzero coefficients as
    int -> int, n ascending."""
    out = {}
    for n, c in coeffs.items():
        n = int(n)
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        c = operator.index(c)
        if c:
            out[n] = c
    return MappingProxyType(dict(sorted(out.items())))


class QExpansion(Value):
    """Finitely many integer coefficients, valid through q^prec.

    `kohnen` marks a series claimed to live in the plus subspace for
    weight 3/2, where coefficients may only sit at n ≡ 0, 3 mod 4; the
    claim is validated on construction.  Immutable, `coeffs` being a
    read-only view of a private dict, and equal by (prec, coeffs, kohnen);
    unhashable, since `coeffs` is a mapping.
    """

    __slots__ = ("prec", "coeffs", "kohnen")
    __hash__ = None

    def __init__(self, prec: int, coeffs: dict[int, int] | None = None, kohnen: bool = False):
        coeffs = _normalize(coeffs or {})
        for n in coeffs:
            if n > prec:
                raise ValueError(f"coefficient at {n} beyond precision {prec}")
            if kohnen and n % 4 in (1, 2):
                raise ValueError(
                    f"nonzero coefficient at {n} ≡ {n % 4} mod 4 in a plus-space series"
                )
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "kohnen", kohnen)

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        if n > self.prec:
            raise PrecisionError(
                f"coefficient {n} requested but series only known to {self.prec}"
            )
        return self.coeffs.get(n, 0)

    def scale(self, c: int) -> "QExpansion":
        c = operator.index(c)
        return QExpansion(
            self.prec,
            {n: c * v for n, v in self.coeffs.items()},
            kohnen=self.kohnen,
        )

    def leading(self) -> tuple[int, int] | None:
        """(n, a_n) at the smallest n with a_n != 0, or None."""
        for n, v in self.coeffs.items():
            return n, v
        return None

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"prec": prec, "coeffs": {str(n): a_n}}, n ascending."""
        return {"prec": self.prec, "coeffs": {str(n): v for n, v in self.coeffs.items()}}

    def to_text(self) -> str:
        """Two-column 'n a_n' lines, nonzero coefficients, n ascending."""
        return "\n".join(f"{n} {v}" for n, v in self.coeffs.items())
