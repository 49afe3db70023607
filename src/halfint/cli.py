"""Command-line front end: configuration, caching, and serialization.

The pipeline entry point is `kohnen_basis`, which scans the odd
ramification subsets of the level in increasing product order, keeps
the rational eigenlines whose bad-prime eigenvalues are signs matching
the subset, applies the selector and any external eigenvalue file, and
hands back the pair {g, h} with its provenance.  The subcommands are
thin serializers over that pipeline and its intermediate stages.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

from .brandt import (
    Eigenform,
    IdealClassSet,
    cuspidal_eigenlines,
    ideal_classes,
)
from .errors import (
    AmbiguousSelectorError,
    ConfigurationError,
    EvenRootNumberError,
    HalfIntError,
    NewformFileError,
    SelectorNotFoundError,
    ZeroFormError,
)
from .lattice import eichler_order
from .lift import LiftProfile, assemble_h, local_K
from .numth import is_prime, is_squarefree, prime_factors, primes
from .qexp import QExpansion
from .quat import QuaternionAlgebra, algebra_ramified_at
from .theta import kohnen_form, ternary_theta, trace_zero_lattice

__all__ = [
    "JobConfig",
    "ingest_newform",
    "eigenline_candidates",
    "kohnen_basis",
    "cmd_basis",
    "cmd_brandt",
    "cmd_theta",
    "cmd_localfactors",
    "main",
]

CACHE_ENV = "HALFINT_CACHE_DIR"
_METADATA_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class JobConfig:
    """Validated options shared by every subcommand."""

    level: int
    selector: str | None = None
    prec: int = 100
    fmt: str = "text"
    cache_dir: str | None = None
    newform_file: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.level < 3 or self.level % 2 == 0 or not is_squarefree(self.level):
            raise ConfigurationError(
                f"level must be an odd square-free integer >= 3, got {self.level}"
            )
        if self.prec < 1:
            raise ConfigurationError(f"precision must be >= 1, got {self.prec}")
        if self.fmt not in ("text", "json"):
            raise ConfigurationError(f"unknown output format {self.fmt!r}")
        if self.workers < 1:
            raise ConfigurationError(f"worker count must be >= 1, got {self.workers}")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_dir(config: JobConfig) -> Path | None:
    raw = config.cache_dir or os.environ.get(CACHE_ENV)
    return Path(raw) if raw else None


def _cache_path(directory: Path, alg: QuaternionAlgebra, level: int) -> Path:
    return directory / f"brandt_a{alg.a}_b{alg.b}_N{level}.json"


def _load_class_set(
    order, alg: QuaternionAlgebra, level: int, directory: Path | None
) -> IdealClassSet:
    if directory is not None:
        path = _cache_path(directory, alg, level)
        if path.is_file():
            try:
                return IdealClassSet.from_state(order, json.loads(path.read_text()))
            except (ValueError, KeyError, TypeError):
                pass  # unparsable or incomplete: a miss, overwritten once stored
    return ideal_classes(order)


def _store_class_set(
    class_set: IdealClassSet, alg: QuaternionAlgebra, level: int, directory: Path | None
) -> None:
    if directory is None:
        return
    directory.mkdir(parents=True, exist_ok=True)
    path = _cache_path(directory, alg, level)
    # write beside the target and rename, so no reader sees a partial file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(class_set.to_state(), sort_keys=True) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# external eigenvalue files
# ---------------------------------------------------------------------------


def ingest_newform(path: str) -> dict[int, int]:
    """Parse a "p b_p" two-column text file or a JSON map of the same."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise NewformFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    out: dict[int, int] = {}
    if not stripped:
        return out
    try:
        if stripped.startswith("{"):
            data = json.loads(stripped)
            items = [(key, value) for key, value in data.items()]
        else:
            items = []
            for line in stripped.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'p b_p', got {line!r}")
                items.append((parts[0], parts[1]))
        for key, value in items:
            p, v = int(key), int(value)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in out and out[p] != v:
                raise ValueError(f"conflicting values at {p}")
            out[p] = v
    except (ValueError, json.JSONDecodeError) as exc:
        raise NewformFileError(f"malformed eigenvalue file {path}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# eigenline search
# ---------------------------------------------------------------------------


def _odd_subsets(ps: list[int]) -> list[tuple[int, ...]]:
    """Odd-cardinality subsets, ordered by product then lexicographically."""
    subsets = []
    for mask in range(1, 1 << len(ps)):
        chosen = tuple(p for i, p in enumerate(ps) if mask >> i & 1)
        if len(chosen) % 2:
            product = 1
            for p in chosen:
                product *= p
            subsets.append((product, chosen))
    return [chosen for _, chosen in sorted(subsets)]


class Candidate:
    """One admissible eigenline together with its module."""

    def __init__(self, eigenform: Eigenform, class_set: IdealClassSet,
                 ramified: tuple[int, ...], alg: QuaternionAlgebra):
        self.eigenform = eigenform
        self.class_set = class_set
        self.ramified = ramified
        self.alg = alg


def eigenline_candidates(
    level: int,
    cache_dir: Path | None = None,
    restrict: tuple[int, ...] | None = None,
) -> list[Candidate]:
    """Admissible eigenlines over all odd ramification subsets.

    A line qualifies when its eigenvalue at every prime dividing the
    level is +1 at the ramified primes and -1 at the others.  The
    refinement keeps only that sign pattern, so lines whose bad
    eigenvalues are not signs (transfers from lower level) never appear.
    """
    bad_primes = prime_factors(level)
    out: list[Candidate] = []
    for ramified in _odd_subsets(bad_primes):
        if restrict is not None and ramified != restrict:
            continue
        alg = algebra_ramified_at(list(ramified))
        order = eichler_order(alg, level)
        class_set = _load_class_set(order, alg, level, cache_dir)
        signs = {p: 1 if p in ramified else -1 for p in bad_primes}
        for line in cuspidal_eigenlines(class_set, signs=signs):
            out.append(Candidate(line, class_set, ramified, alg))
        _store_class_set(class_set, alg, level, cache_dir)
    return out


def _parse_prefix(selector: str) -> dict[int, int]:
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
            out[int(p)] = int(v)
        except ValueError as exc:
            raise ConfigurationError(f"bad selector entry {chunk!r}") from exc
    if not out:
        raise ConfigurationError(f"empty selector {selector!r}")
    return out


def _select(
    candidates: list[Candidate], selector: str | None
) -> tuple[int, Candidate]:
    if not candidates:
        raise SelectorNotFoundError(
            "no rational sign-compatible eigenline exists at this level"
        )
    if selector is None:
        return 0, candidates[0]
    selector = selector.strip()
    try:
        index = int(selector)
    except ValueError:
        index = None
    if index is not None:
        if not 0 <= index < len(candidates):
            raise SelectorNotFoundError(
                f"selector index {index} out of range 0..{len(candidates) - 1}"
            )
        return index, candidates[index]
    prefix = _parse_prefix(selector)
    matches = []
    for i, cand in enumerate(candidates):
        if all(cand.eigenform.eigenvalue(p) == v for p, v in prefix.items()):
            matches.append((i, cand))
    if not matches:
        raise SelectorNotFoundError(f"no eigenline matches {selector!r}")
    if len(matches) > 1:
        raise AmbiguousSelectorError(
            f"{len(matches)} eigenlines match {selector!r}; extend the prefix"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _build_profile(cand: Candidate, pmax: int) -> LiftProfile:
    line = cand.eigenform
    level = cand.class_set.level
    bad = {p: (line.bad_sign(p), line.involution_sign(p)) for p in prime_factors(level)}
    eigen = {}
    for p in primes():
        if p > pmax:
            break
        if p != 2 and level % p != 0:
            eigen[p] = line.eigenvalue(p)
    return LiftProfile(level=level, b2=line.eigenvalue(2), bad=bad, eigen=eigen)


def kohnen_basis(config: JobConfig) -> dict:
    """Run the full pipeline for one level and return all artifacts."""
    pmax = max(max(_METADATA_PRIMES), isqrt(config.prec))
    result = kohnen_basis_selection_only(config, pmax)
    cand = result["candidate"]
    deep_g = kohnen_form(
        cand.eigenform, cand.class_set, 4 * config.prec
    ).sign_normalized()
    if not deep_g:
        raise ZeroFormError(
            "the theta eigenform vanishes identically: the selected newform "
            "has central L-value zero and carries no Kohnen lift"
        )
    g = deep_g.truncate(config.prec)
    h = assemble_h(deep_g, result["profile"], config.prec)
    _store_class_set(cand.class_set, cand.alg, config.level, _cache_dir(config))
    return result | {"g": g, "h": h}


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _metadata(cand: Candidate, profile: LiftProfile) -> dict:
    class_set = cand.class_set
    eig_table = {}
    for p in _METADATA_PRIMES:
        eig_table[str(p)] = profile.eigenvalue(p)
    for p in sorted(profile.bad):
        eig_table.setdefault(str(p), profile.bad[p][0])
    return {
        "level": class_set.level,
        "algebra": {
            "a": cand.alg.a,
            "b": cand.alg.b,
            "ramified": list(cand.alg.ramified),
        },
        "class_number": class_set.h,
        "mass": str(class_set.mass),
        "unit_counts": list(class_set.unit_counts),
        "ramified_set": list(cand.ramified),
        "involutions": {str(p): profile.bad[p][1] for p in sorted(profile.bad)},
        "eigenvalues": eig_table,
    }


def _meta_text(meta: dict) -> list[str]:
    lines = [
        f"level {meta['level']}",
        "algebra a={a} b={b} ramified {r}".format(
            a=meta["algebra"]["a"],
            b=meta["algebra"]["b"],
            r=",".join(str(p) for p in meta["algebra"]["ramified"]),
        ),
        f"class_number {meta['class_number']}",
        f"mass {meta['mass']}",
        "unit_counts " + " ".join(str(e) for e in meta["unit_counts"]),
        "ramified_set " + ",".join(str(p) for p in meta["ramified_set"]),
    ]
    for p, w in meta["involutions"].items():
        lines.append(f"w {p} {w}")
    for p, b in meta["eigenvalues"].items():
        lines.append(f"b {p} {b}")
    return lines


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_basis(config: JobConfig) -> str:
    result = kohnen_basis(config)
    meta = _metadata(result["candidate"], result["profile"])
    if config.fmt == "json":
        payload = dict(meta)
        payload["selector_index"] = result["selector_index"]
        payload["g"] = result["g"].to_json_dict()
        payload["h"] = result["h"].to_json_dict()
        return _dump_json(payload)
    lines = _meta_text(meta)
    lines.append(f"selector_index {result['selector_index']}")
    lines.append("g")
    lines.append(result["g"].to_text())
    lines.append("h")
    lines.append(result["h"].to_text())
    return "\n".join(lines) + "\n"


def cmd_brandt(config: JobConfig, nmax: int = 10) -> str:
    if nmax < 1:
        raise ConfigurationError(f"need nmax >= 1, got {nmax}")
    result = kohnen_basis_selection_only(config)
    cand = result["candidate"]
    class_set = cand.class_set
    class_set.plan(nmax)
    matrices = {n: class_set.brandt(n) for n in range(1, nmax + 1)}
    _store_class_set(cand.class_set, cand.alg, config.level, _cache_dir(config))
    meta = _metadata(cand, result["profile"])
    if config.fmt == "json":
        payload = dict(meta)
        payload["brandt"] = {
            str(n): [list(row) for row in mat] for n, mat in matrices.items()
        }
        return _dump_json(payload)
    lines = _meta_text(meta)
    for n, mat in matrices.items():
        lines.append(f"B({n})")
        for row in mat:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def cmd_theta(config: JobConfig) -> str:
    result = kohnen_basis_selection_only(config)
    cand = result["candidate"]
    thetas = [
        ternary_theta(trace_zero_lattice(order), config.prec)
        for order in cand.class_set.rights
    ]
    meta = _metadata(cand, result["profile"])
    if config.fmt == "json":
        payload = dict(meta)
        payload["thetas"] = [t.to_json_dict() for t in thetas]
        return _dump_json(payload)
    lines = _meta_text(meta)
    for i, t in enumerate(thetas, start=1):
        lines.append(f"theta {i}")
        lines.append(t.to_text())
    return "\n".join(lines) + "\n"


def cmd_localfactors(config: JobConfig, lo: int = 2, hi: int = 23) -> str:
    if not 1 <= lo <= hi:
        raise ConfigurationError(f"bad index range {lo}:{hi}")
    result = kohnen_basis_selection_only(config, pmax=max(13, isqrt(hi)))
    profile = result["profile"]
    def clean(z: complex) -> complex:
        return complex(z.real if z.real != 0 else 0.0, z.imag if z.imag != 0 else 0.0)

    rows = []
    for n in range(lo, hi + 1):
        k1 = clean(local_K(profile, "K1", n))
        k2 = clean(local_K(profile, "K2", n))
        rows.append((n, k1, k2))
    meta = _metadata(result["candidate"], profile)
    if config.fmt == "json":
        payload = dict(meta)
        payload["local_factors"] = [
            {"n": n, "K1": [k1.real, k1.imag], "K2": [k2.real, k2.imag]}
            for n, k1, k2 in rows
        ]
        return _dump_json(payload)
    lines = _meta_text(meta)
    lines.append("n K1_re K1_im K2_re K2_im")
    for n, k1, k2 in rows:
        lines.append(f"{n} {k1.real!r} {k1.imag!r} {k2.real!r} {k2.imag!r}")
    return "\n".join(lines) + "\n"


def _pinned_subset(level: int, newform_map: dict[int, int]) -> tuple[int, ...] | None:
    """The ramification subset fixed by file signs at every prime dividing
    the level, or None when some such prime is not pinned."""
    bad_primes = prime_factors(level)
    if not all(p in newform_map for p in bad_primes):
        return None
    for p in bad_primes:
        if newform_map[p] not in (1, -1):
            raise NewformFileError(
                f"eigenvalue at {p} must be ±1 for a prime dividing the level"
            )
    chosen = tuple(p for p in bad_primes if newform_map[p] == 1)
    if len(chosen) % 2 == 0:
        raise EvenRootNumberError(
            "the supplied signs make every functional equation even; "
            "no quaternion algebra is ramified at this configuration"
        )
    return chosen


def kohnen_basis_selection_only(config: JobConfig, pmax: int | None = None) -> dict:
    """Candidate selection and profile, without theta or h work."""
    newform_map = (
        ingest_newform(config.newform_file) if config.newform_file else {}
    )
    restrict = _pinned_subset(config.level, newform_map)
    candidates = eigenline_candidates(config.level, _cache_dir(config), restrict)
    if newform_map:
        candidates = [
            cand
            for cand in candidates
            if all(
                cand.eigenform.eigenvalue(p) == v for p, v in newform_map.items()
            )
        ]
        if not candidates:
            raise NewformFileError(
                "external eigenvalues conflict with every computed eigenline"
            )
    index, cand = _select(candidates, config.selector)
    pmax = pmax or max(_METADATA_PRIMES)
    cand.class_set.plan(pmax)
    profile = _build_profile(cand, pmax)
    return {"candidate": cand, "selector_index": index, "profile": profile}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--level", type=int, required=True, help="odd square-free level")
    sub.add_argument("--selector", default=None,
                     help="eigenline index or comma list of p=value pairs")
    sub.add_argument("--prec", type=int, default=100, help="series precision")
    sub.add_argument("--format", dest="fmt", choices=("text", "json"),
                     default="text", help="output format")
    sub.add_argument("--cache-dir", default=None,
                     help=f"Brandt cache directory (default ${CACHE_ENV})")
    sub.add_argument("--newform-file", default=None,
                     help="optional 'p b_p' text or JSON eigenvalue file")
    sub.add_argument("--workers", type=int, default=1,
                     help="parallelism cap (results never depend on it)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="halfint",
                     description="Exact weight-3/2 bases from quaternionic theta series")
    commands = parser.add_subparsers(dest="command", required=True)
    basis = commands.add_parser("basis", help="compute the basis pair {g, h}")
    _add_common(basis)
    brandt = commands.add_parser("brandt", help="ideal-class and degree-matrix data")
    _add_common(brandt)
    brandt.add_argument("--nmax", type=int, default=10,
                        help="largest degree matrix to print")
    theta = commands.add_parser("theta", help="class theta series")
    _add_common(theta)
    local = commands.add_parser("localfactors", help="diagnostic local products")
    _add_common(local)
    local.add_argument("--range", dest="index_range", default="2:23",
                       help="index range LO:HI")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = JobConfig(
            level=args.level,
            selector=args.selector,
            prec=args.prec,
            fmt=args.fmt,
            cache_dir=args.cache_dir,
            newform_file=args.newform_file,
            workers=args.workers,
        )
        if args.command == "basis":
            out = cmd_basis(config)
        elif args.command == "brandt":
            out = cmd_brandt(config, nmax=args.nmax)
        elif args.command == "theta":
            out = cmd_theta(config)
        else:
            try:
                lo, hi = (int(x) for x in args.index_range.split(":", 1))
            except ValueError:
                raise ConfigurationError(
                    f"range must look like LO:HI, got {args.index_range!r}"
                ) from None
            out = cmd_localfactors(config, lo, hi)
    except HalfIntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
