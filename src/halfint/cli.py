"""Command-line front end: configuration, caching, and serialization.

Every subcommand runs one pipeline, `_run`: check the signs a newform
file pins, search the odd ramification subsets of the level for the
admissible eigenlines (`eigenline_candidates`), filter them by the file,
select one, build its profile, then run the subcommand's stage: {g, g4, h}
for `basis` (the library's `kohnen_basis`), degree matrices for
`brandt`, class theta series for `theta`, local products for
`localfactors`.  The selected class set is then cached with every degree
matrix the run built, and `_render` prints metadata and stage output.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from math import isqrt, prod
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .brandt import (
    ORDER_PRIMES,
    PRIME_BOUND,
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
from .lattice import Order, eichler_order
from .lift import LiftProfile, assemble_h
from .numth import TRIAL_BOUND, is_prime, is_squarefree, prime_factors, primes
from .qexp import QExpansion
from .quat import algebra_ramified_at
from .theta import deep_coefficients, kohnen_form, ternary_theta, trace_zero_lattice

if TYPE_CHECKING:
    import argparse

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


class JobConfig:
    """Validated options shared by every subcommand."""

    __slots__ = ("level", "selector", "prec", "fmt", "cache_dir", "newform_file", "workers")

    def __init__(
        self,
        level: int,
        selector: str | None = None,
        prec: int = 100,
        fmt: str = "text",
        cache_dir: str | None = None,
        newform_file: str | None = None,
        workers: int = 1,
    ):
        # checked first: is_squarefree factors the level by trial division
        if level > TRIAL_BOUND:
            raise ConfigurationError(
                f"level {level} exceeds the trial-division bound {TRIAL_BOUND}"
            )
        if level < 3 or level % 2 == 0 or not is_squarefree(level):
            raise ConfigurationError(
                f"level must be an odd square-free integer >= 3, got {level}"
            )
        if prec < 1:
            raise ConfigurationError(f"precision must be >= 1, got {prec}")
        if fmt not in ("text", "json"):
            raise ConfigurationError(f"unknown output format {fmt!r}")
        if workers < 1:
            raise ConfigurationError(f"worker count must be >= 1, got {workers}")
        self.level = level
        self.selector = selector
        self.prec = prec
        self.fmt = fmt
        self.cache_dir = cache_dir
        self.newform_file = newform_file
        self.workers = workers


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_dir(config: JobConfig) -> Path | None:
    raw = config.cache_dir or os.environ.get(CACHE_ENV)
    return Path(raw) if raw else None


def _cache_path(directory: Path, order: Order) -> Path:
    alg = order.alg
    return directory / f"brandt_a{alg.a}_b{alg.b}_N{order.reduced_discriminant}.json"


def _load_class_set(order: Order, directory: Path | None) -> IdealClassSet:
    searched = ideal_classes(order)
    if directory is not None:
        path = _cache_path(directory, order)
        if path.is_file():
            try:
                return IdealClassSet.from_state(searched, json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError, RecursionError):
                pass  # unreadable, too deep, incomplete or inconsistent: a miss, overwritten
    return searched


def _store_class_set(class_set: IdealClassSet, directory: Path | None) -> None:
    if directory is None:
        return
    path = _cache_path(directory, class_set.order)
    text = json.dumps(class_set.to_state(), sort_keys=True) + "\n"
    with contextlib.suppress(OSError):
        if path.read_bytes() == text.encode():
            return  # unchanged: leave the file alone
    # write beside the target and rename, so no reader sees a partial file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise ConfigurationError(
            f"cannot write cache file {path}: {exc.strerror or exc}"
        ) from None


# ---------------------------------------------------------------------------
# external eigenvalue files
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# eigenline search
# ---------------------------------------------------------------------------


def _reachable_entries(newform_map: dict[int, int], level: int) -> dict[int, int]:
    """The entries of a newform file at the primes the refinement reaches:
    at most PRIME_BOUND or dividing the level.  An entry at any other
    prime p is only held to the Hasse bound b_p^2 <= 4p and then left out,
    so it never costs a degree-p matrix."""
    out = {}
    for p, v in newform_map.items():
        if p <= PRIME_BOUND or level % p == 0:
            out[p] = v
        elif v * v > 4 * p:
            raise NewformFileError(
                f"eigenvalue {_excerpt(str(v))} at {p} breaks the Hasse bound b_p^2 <= 4p"
            )
    return out


def _odd_subsets(ps: list[int]) -> list[tuple[int, ...]]:
    """Odd-cardinality subsets, ordered by product then lexicographically."""
    subsets = [c for k in range(1, len(ps) + 1, 2) for c in itertools.combinations(ps, k)]
    return sorted(subsets, key=lambda chosen: (prod(chosen), chosen))


def eigenline_candidates(
    level: int,
    cache_dir: Path | None = None,
    restrict: tuple[int, ...] | None = None,
) -> list[Eigenform]:
    """Admissible eigenlines over all odd ramification subsets.

    A line qualifies when its eigenvalue at every prime dividing the
    level is +1 at the ramified primes and -1 at the others.  The
    refinement keeps only that sign pattern, so lines whose bad
    eigenvalues are not signs (transfers from lower level) never appear.
    """
    bad_primes = prime_factors(level)
    out: list[Eigenform] = []
    for ramified in _odd_subsets(bad_primes):
        if restrict is not None and ramified != restrict:
            continue
        order = eichler_order(algebra_ramified_at(list(ramified)), level)
        class_set = _load_class_set(order, cache_dir)
        signs = {p: 1 if p in ramified else -1 for p in bad_primes}
        out += cuspidal_eigenlines(class_set, signs=signs)
        _store_class_set(class_set, cache_dir)
    return out


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


def _select(
    lines: list[Eigenform], selector: str | None, level: int
) -> tuple[int, Eigenform]:
    if not lines:
        raise SelectorNotFoundError(
            "no rational sign-compatible eigenline exists at this level"
        )
    if selector is None:
        return 0, lines[0]
    selector = selector.strip()
    try:
        index = int(selector)
    except ValueError:
        index = None
    if index is not None:
        if not 0 <= index < len(lines):
            raise SelectorNotFoundError(
                f"selector index {index} out of range 0..{len(lines) - 1}"
            )
        return index, lines[index]
    prefix = _parse_prefix(selector, level)
    matches = [
        (i, line)
        for i, line in enumerate(lines)
        if all(line.eigenvalue(p) == v for p, v in prefix.items())
    ]
    if not matches:
        raise SelectorNotFoundError(f"no eigenline matches {selector!r}")
    if len(matches) > 1:
        raise AmbiguousSelectorError(
            f"{len(matches)} eigenlines match {selector!r}; extend the prefix"
        )
    return matches[0]


def _pinned_subset(level: int, newform_map: dict[int, int]) -> tuple[int, ...] | None:
    """The ramification subset fixed by file signs at every prime dividing
    the level, or None when some such prime is not pinned.  Each sign the
    file does pin must be ±1, checked before any search."""
    bad_primes = prime_factors(level)
    for p in bad_primes:
        if p in newform_map and newform_map[p] not in (1, -1):
            raise NewformFileError(
                f"eigenvalue at {p} must be ±1 for a prime dividing the level"
            )
    if not all(p in newform_map for p in bad_primes):
        return None
    chosen = tuple(p for p in bad_primes if newform_map[p] == 1)
    if len(chosen) % 2 == 0:
        raise EvenRootNumberError(
            "the supplied signs make every functional equation even; "
            "no quaternion algebra is ramified at this configuration"
        )
    return chosen


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _build_profile(line: Eigenform, pmax: int) -> LiftProfile:
    level = line.class_set.level
    ps = {*itertools.takewhile(lambda p: p <= pmax, primes()), *prime_factors(level)}
    return LiftProfile(level, {p: line.eigenvalue(p) for p in sorted(ps)})


def _run(config: JobConfig, stage: Callable[[dict], dict], pmax: int = 0) -> dict:
    """The pipeline of every subcommand.

    Check the signs a newform file pins, search, keep the lines that the
    file's reachable entries allow (`_reachable_entries`), select one, and
    build its profile at the primes up to max(pmax, ORDER_PRIMES).  The
    run {"line", "selector_index", "profile"} is then extended by the dict
    `stage` returns, and the selected class set is stored with every
    degree the run built.
    """
    newform_map = _reachable_entries(
        ingest_newform(config.newform_file) if config.newform_file else {}, config.level
    )
    restrict = _pinned_subset(config.level, newform_map)
    cache_dir = _cache_dir(config)
    lines = eigenline_candidates(config.level, cache_dir, restrict)
    if newform_map:
        lines = [
            line
            for line in lines
            if all(line.eigenvalue(p) == v for p, v in newform_map.items())
        ]
        if not lines:
            raise NewformFileError(
                "external eigenvalues conflict with every computed eigenline"
            )
    index, line = _select(lines, config.selector, config.level)
    pmax = max(pmax, *ORDER_PRIMES)
    line.class_set.plan(pmax)
    run = {"line": line, "selector_index": index, "profile": _build_profile(line, pmax)}
    run |= stage(run)
    _store_class_set(line.class_set, cache_dir)
    return run


def _basis_pair(run: dict, prec: int) -> dict:
    """g, g4 and h through prec.  g is counted through prec, and g4 (its
    coefficients at 4m, which h reads) through prec on the trace-zero
    parts of the orders, both signed by g's leading coefficient.  When g
    vanishes through prec, one count through 4·prec gives the sign, the
    zero test and g4."""
    line = run["line"]
    g = kohnen_form(line, prec)
    if g:
        sign = 1 if g.leading()[1] > 0 else -1
        g4 = deep_coefficients(line, prec).scale(sign)
        g = g.scale(sign)
    else:
        deep_g = kohnen_form(line, 4 * prec).sign_normalized()
        if not deep_g:
            raise ZeroFormError(
                "the theta eigenform vanishes identically: the selected newform "
                "has central L-value zero and carries no Kohnen lift"
            )
        g = deep_g.truncate(prec)
        g4 = QExpansion(prec, {n // 4: c for n, c in deep_g.coeffs.items() if n % 4 == 0})
    return {"g": g, "g4": g4, "h": assemble_h(g, g4, run["profile"], prec)}


def kohnen_basis(config: JobConfig) -> dict:
    """Run the full pipeline for one level and return all artifacts."""
    return _run(config, lambda run: _basis_pair(run, config.prec), isqrt(config.prec))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _metadata(line: Eigenform, profile: LiftProfile) -> dict:
    class_set = line.class_set
    return {
        "level": class_set.level,
        "algebra": class_set.alg.describe(),
        "class_number": class_set.h,
        "mass": class_set.mass_text,
        "unit_counts": list(class_set.unit_counts),
        "ramified_set": list(class_set.alg.ramified),
        "involutions": {str(p): profile.involution_sign(p) for p in profile.bad},
        "eigenvalues": {
            str(p): profile.eigenvalue(p) for p in sorted({*ORDER_PRIMES, *profile.bad})
        },
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


def _render(
    config: JobConfig,
    run: dict,
    fields: Callable[[], dict],
    text: Callable[[], list[str]],
) -> str:
    """The run's metadata followed by one subcommand's output: the JSON
    `fields` or the `text` lines, whichever the format asks for."""
    meta = _metadata(run["line"], run["profile"])
    if config.fmt == "json":
        return json.dumps(meta | fields(), indent=2) + "\n"
    return "\n".join(_meta_text(meta) + text()) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_basis(config: JobConfig) -> str:
    run = kohnen_basis(config)
    index, g, h = run["selector_index"], run["g"], run["h"]
    return _render(
        config,
        run,
        lambda: {"selector_index": index, "g": g.to_json_dict(), "h": h.to_json_dict()},
        lambda: [f"selector_index {index}", "g", g.to_text(), "h", h.to_text()],
    )


def cmd_brandt(config: JobConfig, nmax: int = 10) -> str:
    if nmax < 1:
        raise ConfigurationError(f"need nmax >= 1, got {nmax}")

    def degree_matrices(run: dict) -> dict:
        class_set = run["line"].class_set
        class_set.plan(nmax)
        return {"brandt": {n: class_set.brandt(n) for n in range(1, nmax + 1)}}

    run = _run(config, degree_matrices)
    matrices = run["brandt"]
    return _render(
        config,
        run,
        lambda: {
            "brandt": {str(n): [list(row) for row in mat] for n, mat in matrices.items()}
        },
        lambda: [
            line
            for n, mat in matrices.items()
            for line in [f"B({n})"] + [" ".join(str(x) for x in row) for row in mat]
        ],
    )


def cmd_theta(config: JobConfig) -> str:
    def class_thetas(run: dict) -> dict:
        rights = run["line"].class_set.rights
        return {"thetas": [ternary_theta(trace_zero_lattice(o), config.prec) for o in rights]}

    run = _run(config, class_thetas)
    thetas = run["thetas"]
    return _render(
        config,
        run,
        lambda: {"thetas": [t.to_json_dict() for t in thetas]},
        lambda: [
            line
            for i, t in enumerate(thetas, start=1)
            for line in (f"theta {i}", t.to_text())
        ],
    )


def _clean(z: complex) -> complex:
    """z with any negative zero part made positive."""
    return complex(z.real if z.real != 0 else 0.0, z.imag if z.imag != 0 else 0.0)


def cmd_localfactors(config: JobConfig, lo: int = 2, hi: int = 23) -> str:
    if not 1 <= lo <= hi:
        raise ConfigurationError(f"bad index range {lo}:{hi}")
    from .localfactors import local_K

    def local_products(run: dict) -> dict:
        profile = run["profile"]
        return {
            "rows": [
                (n, _clean(local_K(profile, "K1", n)), _clean(local_K(profile, "K2", n)))
                for n in range(lo, hi + 1)
            ]
        }

    run = _run(config, local_products, isqrt(hi))
    rows = run["rows"]
    return _render(
        config,
        run,
        lambda: {
            "local_factors": [
                {"n": n, "K1": [k1.real, k1.imag], "K2": [k2.real, k2.imag]}
                for n, k1, k2 in rows
            ]
        },
        lambda: ["n K1_re K1_im K2_re K2_im"]
        + [f"{n} {k1.real!r} {k1.imag!r} {k2.real!r} {k2.imag!r}" for n, k1, k2 in rows],
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# every subcommand's options in `--help` order, the shared ones first:
# (option, add_argument keywords); the dest is the option's own name
# unless the keywords give one, and a value is a str unless they give a type
_COMMON_OPTIONS = (
    ("--level", {"type": int, "required": True, "help": "odd square-free level"}),
    ("--selector", {"default": None,
                    "help": "eigenline index or comma list of p=value pairs"}),
    ("--prec", {"type": int, "default": 100, "help": "series precision"}),
    ("--format", {"dest": "fmt", "choices": ("text", "json"), "default": "text",
                  "help": "output format"}),
    ("--cache-dir", {"default": None,
                     "help": f"Brandt cache directory (default ${CACHE_ENV})"}),
    ("--newform-file", {"default": None,
                        "help": "optional 'p b_p' text or JSON eigenvalue file"}),
    ("--workers", {"type": int, "default": 1,
                   "help": "parallelism cap (results never depend on it)"}),
)

# subcommand -> (its help line, its options)
_SUBCOMMANDS = {
    "basis": ("compute the basis pair {g, h}", _COMMON_OPTIONS),
    "brandt": ("ideal-class and degree-matrix data", _COMMON_OPTIONS + (
        ("--nmax", {"type": int, "default": 10, "help": "largest degree matrix to print"}),
    )),
    "theta": ("class theta series", _COMMON_OPTIONS),
    "localfactors": ("diagnostic local products", _COMMON_OPTIONS + (
        ("--range", {"dest": "index_range", "default": "2:23", "help": "index range LO:HI"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command line; its usage errors exit 3."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(3, f"error: {message}\n")

    parser = _Parser(prog="halfint",
                     description="Exact weight-3/2 bases from quaternionic theta series")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in _SUBCOMMANDS.items():
        sub = commands.add_parser(name, help=help_line)
        for option, spec in options:
            sub.add_argument(option, **spec)
    return parser


def _parse_plain(argv: list[str]) -> dict | None:
    """vars(build_parser().parse_args(argv)) for an argv of the plain form
    SUBCOMMAND --option value ...: exact option names, each at most once,
    no value starting with "-", every value valid.  None for any other
    argv (help, a usage error, an abbreviation, --option=value), which
    only argparse handles.

    Every job would otherwise import argparse (and gettext and locale
    through it) and build the four-subcommand parser before its run.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    names, values = argv[1::2], argv[2::2]
    given = dict(zip(names, values))
    if len(names) != len(values) or len(given) != len(names):
        return None  # an option without its value, or one given twice
    args = {"command": argv[0]}
    for option, spec in _SUBCOMMANDS[argv[0]][1]:
        dest = spec.get("dest", option[2:].replace("-", "_"))
        if option not in given:
            if spec.get("required"):
                return None
            args[dest] = spec["default"]
            continue
        value = given.pop(option)
        if value.startswith("-") or value not in spec.get("choices", (value,)):
            return None
        try:
            args[dest] = spec.get("type", str)(value)
        except ValueError:
            return None
    return None if given else args  # what is left is no option of this subcommand


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    try:
        config = JobConfig(
            level=args["level"],
            selector=args["selector"],
            prec=args["prec"],
            fmt=args["fmt"],
            cache_dir=args["cache_dir"],
            newform_file=args["newform_file"],
            workers=args["workers"],
        )
        command = args["command"]
        if command == "basis":
            out = cmd_basis(config)
        elif command == "brandt":
            out = cmd_brandt(config, nmax=args["nmax"])
        elif command == "theta":
            out = cmd_theta(config)
        else:
            index_range = args["index_range"]
            try:
                lo, hi = (int(x) for x in index_range.split(":", 1))
            except ValueError:
                raise ConfigurationError(
                    f"range must look like LO:HI, got {index_range!r}"
                ) from None
            out = cmd_localfactors(config, lo, hi)
    except HalfIntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
