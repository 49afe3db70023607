"""The subcommands other than `basis`, and the argparse command line.

Each runs the pipeline of `cli._run` with its own stage and prints
through `cli._render`.  A `basis` job never runs them, so `cli.main`
imports this module only for `brandt`, `theta` and `localfactors`, and
for an argv its own parse (`cli._parse_plain`) leaves to argparse.
"""

from __future__ import annotations

import sys
from math import isqrt
from typing import TYPE_CHECKING

from .cli import _SUBCOMMANDS, JobConfig, _render, _run
from .errors import ConfigurationError
from .theta import ternary_theta, trace_zero_lattice

if TYPE_CHECKING:
    import argparse

__all__ = ["cmd_brandt", "cmd_theta", "cmd_localfactors", "run_subcommand", "build_parser"]


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


def run_subcommand(config: JobConfig, args: dict) -> str:
    """The output of the parsed subcommand `args["command"]`, not `basis`."""
    command = args["command"]
    if command == "brandt":
        return cmd_brandt(config, nmax=args["nmax"])
    if command == "theta":
        return cmd_theta(config)
    index_range = args["index_range"]
    try:
        lo, hi = (int(x) for x in index_range.split(":", 1))
    except ValueError:
        raise ConfigurationError(
            f"range must look like LO:HI, got {index_range!r}"
        ) from None
    return cmd_localfactors(config, lo, hi)


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
