"""Eigenvalues given from outside the program: newform files and the
p=value pairs of a selector.

A `basis` job reads neither unless it is given one, so `cli` imports
this module only then: `_run` for `--newform-file`, `_select` for a
selector that is not an index.
"""

from __future__ import annotations

import json
from pathlib import Path

from .brandt import PRIME_BOUND
from .errors import ConfigurationError, EvenRootNumberError, NewformFileError
from .numth import is_prime, prime_factors

__all__ = ["ingest_newform"]

# the longest piece of an eigenvalue file that an error message quotes
EXCERPT_CHARS = 40


def _excerpt(text: str) -> str:
    """`text`, or its first EXCERPT_CHARS characters marked as cut, so an
    error line stays short whatever the file holds."""
    if len(text) <= EXCERPT_CHARS:
        return text
    return f"{text[:EXCERPT_CHARS]}... ({len(text)} characters)"


def _file_int(value) -> int:
    """A JSON integer (not a bool) or a decimal-integer string as an int."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"expected an integer, got {_excerpt(json.dumps(value))}")


def ingest_newform(path: str) -> dict[int, int]:
    """Parse a "p b_p" two-column text file or a JSON map of the same,
    UTF-8 with or without a byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise NewformFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    out: dict[int, int] = {}
    if not stripped:
        return out
    try:
        if stripped.startswith("{"):
            # the pairs in file order, so that a repeated key reaches the
            # conflict check below; the top-level object is decoded last,
            # and nested ones stay dicts, which an error quotes as written
            objects = []

            def keep_pairs(pairs):
                objects.append(pairs)
                return dict(pairs)

            json.loads(stripped, object_pairs_hook=keep_pairs)
            items = objects[-1]
        else:
            items = []
            for line in stripped.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'p b_p', got {_excerpt(repr(line))}")
                items.append((parts[0], parts[1]))
        for key, value in items:
            p, v = _file_int(key), _file_int(value)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in out and out[p] != v:
                raise ValueError(f"conflicting values at {p}")
            out[p] = v
    except (ValueError, json.JSONDecodeError) as exc:
        raise NewformFileError(f"malformed eigenvalue file {path}: {exc}") from exc
    except RecursionError:
        raise NewformFileError(
            f"malformed eigenvalue file {path}: JSON nested too deeply"
        ) from None
    return out


def _newform_pins(newform_map: dict[int, int], level: int) -> dict[int, int]:
    """The entries of a newform file at the primes the refinement reaches:
    at most PRIME_BOUND or dividing the level.  Checked before any search,
    in this order: an entry at any other prime p is only held to the
    Hasse bound b_p^2 <= 4p and then left out, so it never costs a
    degree-p matrix; each entry at a level prime must be ±1; and signs
    pinned at every level prime must make the root number odd."""
    pins = {}
    for p, v in newform_map.items():
        if p <= PRIME_BOUND or level % p == 0:
            pins[p] = v
        elif v * v > 4 * p:
            raise NewformFileError(
                f"eigenvalue {_excerpt(str(v))} at {p} breaks the Hasse bound b_p^2 <= 4p"
            )
    bad_primes = prime_factors(level)
    for p in bad_primes:
        if pins.get(p, 1) not in (1, -1):
            raise NewformFileError(
                f"eigenvalue at {p} must be ±1 for a prime dividing the level"
            )
    if all(p in pins for p in bad_primes) and sum(pins[p] == 1 for p in bad_primes) % 2 == 0:
        raise EvenRootNumberError(
            "the supplied signs make every functional equation even; "
            "no quaternion algebra is ramified at this configuration"
        )
    return pins


def _parse_prefix(selector: str, level: int) -> dict[int, int]:
    """The p=value pairs of a selector.  A key must be a prime, and one of
    those that refinement reaches: at most PRIME_BOUND or dividing the
    level.  Lines distinct there need no other key, and a larger key
    would cost a degree-p matrix (or a long primality test) to read."""
    out = {}
    for chunk in selector.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigurationError(
                f"selector {selector!r} is neither an index nor p=value pairs"
            )
        p, v = chunk.split("=", 1)
        try:
            p, v = int(p), int(v)
        except ValueError as exc:
            raise ConfigurationError(f"bad selector entry {chunk!r}") from exc
        if p > PRIME_BOUND and level % p:
            raise ConfigurationError(
                f"selector key {p} is above {PRIME_BOUND} and does not divide the level"
            )
        if not is_prime(p):
            raise ConfigurationError(f"selector key {p} is not a prime")
        if p in out and out[p] != v:
            raise ConfigurationError(f"selector has conflicting values at {p}")
        out[p] = v
    if not out:
        raise ConfigurationError(f"empty selector {selector!r}")
    return out
