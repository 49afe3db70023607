"""Command-line front end: configuration, caching, and serialization.

Every subcommand runs one pipeline, `_run`: check a newform file and
take its entries as pins (`_newform_pins`), search the odd ramification
subsets of the level for the admissible eigenlines with those
eigenvalues (`eigenline_candidates`), select one, move it to the class
set of its own algebra (`matching_eigenline`), build its profile, then
run the subcommand's stage: {g, g4, h} for `basis` (the library's
`kohnen_basis`), degree matrices for `brandt`, class theta series for
`theta`, local products for `localfactors`.  The selected class set is
then cached with every degree matrix the run built, and `_render`
prints metadata and stage output.

Which class sets a run builds: the search builds one at every level,
the Eichler order of level N in the algebra ramified at the largest
odd-sized prefix of N's sorted primes (all of them when their number is
odd, all but the largest otherwise), which holds every newform of level
N once and no old form that the sign filter lets through.  The selected
line needs a second set only when its own algebra is another.

The zero test: `basis` raises ZeroFormError (exit 2, a central L-value
zero) only when g vanishes through the Sturm bound `theta.sturm_bound(N)`
as well as through the precision (`_basis_pair`), so a small `--prec`
never reports a nonzero g as zero.
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
    matching_eigenline,
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
from .quat import algebra_ramified_at
from .theta import (
    deep_coefficients,
    kohnen_form,
    sturm_bound,
    ternary_theta,
    trace_zero_lattice,
)

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


def _odd_subsets(ps: list[int]) -> list[tuple[int, ...]]:
    """Odd-cardinality subsets, ordered by product then lexicographically."""
    subsets = [c for k in range(1, len(ps) + 1, 2) for c in itertools.combinations(ps, k)]
    return sorted(subsets, key=lambda chosen: (prod(chosen), chosen))


def _class_set(level: int, ramified: tuple[int, ...], cache_dir: Path | None) -> IdealClassSet:
    """The class set of the level-N Eichler order in the algebra ramified
    at `ramified`, with the degree matrices a valid cache file holds."""
    order = eichler_order(algebra_ramified_at(list(ramified)), level)
    return _load_class_set(order, cache_dir)


def eigenline_candidates(
    level: int,
    cache_dir: Path | None = None,
    pins: dict[int, int] | None = None,
) -> list[Eigenform]:
    """Admissible eigenlines over the odd ramification subsets, with the
    eigenvalues `pins` gives (a newform file's reachable entries).

    A line qualifies for the subset S when its eigenvalue at every prime
    dividing the level is +1 at the primes of S and -1 at the others.
    Every subset whose signs agree with the pins at the level primes is
    refined with its signs and the pins on one class set, the search
    set: the Eichler order of level N in the algebra ramified at the
    largest odd-sized prefix D of N's sorted primes, built
    (`_class_set`), refined and stored once.  Its rational cuspidal lines
    are the rational forms of level N that are new at D, each once
    (Jacquet–Langlands, made explicit for Brandt matrices by Pizer,
    J. Algebra 64, 1980, and Gross, "Heights and special values of
    L-series", 1987); on a newform, the degree matrix at q | N has
    eigenvalue a_q, which is +1 exactly at the primes of the subset whose
    own class set holds it.  With an odd number of primes D = N, the
    maximal order of discriminant N, which holds no old form.  With an
    even number D = N/q for the largest prime q, and the set also holds
    the q-old forms of level N/q; such a line has B(q)-eigenvalue
    a_q + q·w_q, a sign only when a_q = ±(q - 1), which the Hasse bound
    |a_q| <= 2√q allows only for q <= 5, that is N = 15, and level 3 has
    no cusp form.  So each subset's signs give that subset's lines,
    sorted by their eigenvalues at ORDER_PRIMES, and `_run` moves only
    the selected line to its host (`matching_eigenline`).  Lines that tie
    at every ORDER_PRIME keep the order in which the refinement finished
    them, and the pins only drop lines from that order.
    """
    pins = pins or {}
    bad_primes = prime_factors(level)
    search = tuple(bad_primes[: len(bad_primes) - 1 + len(bad_primes) % 2])
    class_set = _class_set(level, search, cache_dir)
    out: list[Eigenform] = []
    for ramified in _odd_subsets(bad_primes):
        signs = {p: 1 if p in ramified else -1 for p in bad_primes}
        if all(pins.get(p, s) == s for p, s in signs.items()):
            out += cuspidal_eigenlines(class_set, signs | pins)
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


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _build_profile(line: Eigenform, pmax: int) -> LiftProfile:
    level = line.class_set.level
    ps = {*itertools.takewhile(lambda p: p <= pmax, primes()), *prime_factors(level)}
    return LiftProfile(level, {p: line.eigenvalue(p) for p in sorted(ps)})


def _run(config: JobConfig, stage: Callable[[dict], dict], pmax: int = 0) -> dict:
    """The pipeline of every subcommand.

    Check a newform file and take its reachable entries as pins
    (`_newform_pins`), search for the lines with those eigenvalues,
    select one, move it to the class set of its host, the algebra
    ramified where its eigenvalue is +1, when the search found it on
    another (`matching_eigenline`), and build its profile at the primes
    up to max(pmax, ORDER_PRIMES).  The run {"line", "selector_index",
    "profile"} is then extended by the dict `stage` returns, and the
    selected class set is stored with every degree the run built.
    """
    pins = _newform_pins(
        ingest_newform(config.newform_file) if config.newform_file else {}, config.level
    )
    cache_dir = _cache_dir(config)
    lines = eigenline_candidates(config.level, cache_dir, pins)
    if pins and not lines:
        raise NewformFileError("external eigenvalues conflict with every computed eigenline")
    index, line = _select(lines, config.selector, config.level)
    pmax = max(pmax, *ORDER_PRIMES)
    host = tuple(p for p in prime_factors(config.level) if line.eigenvalue(p) == 1)
    if host != line.class_set.alg.ramified:
        # one counting pass on the host serves the match and the profile
        host_set = _class_set(config.level, host, cache_dir)
        host_set.plan(pmax)
        line = matching_eigenline(line, host_set)
    line.class_set.plan(pmax)
    run = {"line": line, "selector_index": index, "profile": _build_profile(line, pmax)}
    run |= stage(run)
    _store_class_set(line.class_set, cache_dir)
    return run


def _basis_pair(run: dict, prec: int) -> dict:
    """g, g4 and h through prec.  g is counted through prec, and g4 (its
    coefficients at 4m, which h reads) through prec on the trace-zero
    parts of the orders, both signed by g's first nonzero coefficient.
    When g vanishes through prec < B = `sturm_bound(level)`, g is counted
    once more through B for that coefficient; g vanishing through
    max(prec, B) certifies g = 0, a central L-value zero."""
    line = run["line"]
    g = kohnen_form(line, prec)
    bound = sturm_bound(line.class_set.level)
    lead = g.leading() or (prec < bound and kohnen_form(line, bound).leading())
    if not lead:
        raise ZeroFormError(
            "the theta eigenform vanishes identically: the selected newform "
            "has central L-value zero and carries no Kohnen lift"
        )
    sign = 1 if lead[1] > 0 else -1
    g, g4 = g.scale(sign), deep_coefficients(line, prec).scale(sign)
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
