"""Run `basis` at every odd square-free level in a range, and report each.

Each level N >= 3 runs `python -m halfint basis --level N --prec P
--format json` in a fresh process, with its own empty cache directory
and a wall-clock timeout; at most `os.cpu_count()` levels run at a time.
Per level it prints the exit code (or `timeout`), the wall time, the
class number read from the JSON (`-` when the run printed none) and the
SHA-256 of stdout, in level order; it ends with the ten slowest levels
and the levels that timed out.  Standard library only:

    python3 tools/sweep.py 3 400 --prec 30 --timeout 60
    python3 tools/sweep.py 3 400 --src OTHER/src      # another checkout
    python3 tools/sweep.py 3 150 --check tools/sweep_reference.txt

With `--check FILE` it compares the exit code and the stdout digest of
each level it runs against FILE, the printed output of an earlier sweep
at the same `--prec` (lines starting with `#` are skipped, and so are the
wall time and the class number), and exits 1 naming every level that
differs or that FILE does not list; any sub-range of FILE can be checked.
`tools/sweep_reference.txt` is the sweep of 3 <= N < 1100 at `--prec 30`,
in which no level took 16 s, two levels at a time on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def odd_squarefree(lo: int, hi: int) -> list[int]:
    """The odd square-free integers N >= 3 in [lo, hi)."""
    def squarefree(n: int) -> bool:
        p = 3
        while p * p <= n:
            if n % (p * p) == 0:
                return False
            p += 2
        return True

    return [n for n in range(max(lo, 3), hi) if n % 2 and squarefree(n)]


def run_level(level: int, prec: int, timeout: float, src: Path) -> tuple[int, str, float, str, str]:
    """(level, exit code or "timeout", wall seconds, class number or "-",
    stdout SHA-256)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("HALFINT_CACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="halfint-sweep-") as cache:
        argv = [sys.executable, "-m", "halfint", "basis", "--level", str(level),
                "--prec", str(prec), "--format", "json", "--cache-dir", cache]
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return level, "timeout", time.perf_counter() - start, "-", "-"
        wall = time.perf_counter() - start
    classes = str(json.loads(done.stdout)["class_number"]) if done.stdout.strip() else "-"
    return level, str(done.returncode), wall, classes, hashlib.sha256(done.stdout).hexdigest()


def read_reference(path: Path) -> dict[int, tuple[str, str]]:
    """{level: (exit code, stdout digest)} from the printed output of a sweep."""
    ref = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split()
            ref[int(fields[0])] = fields[1], fields[-1]
    return ref


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lo", type=int, help="first level tried")
    parser.add_argument("hi", type=int, help="levels below this are tried")
    parser.add_argument("--prec", type=int, default=30)
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per level")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the halfint package (default: this checkout's src)")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare exit codes and digests with an earlier sweep's output")
    args = parser.parse_args(argv)
    ref = read_reference(args.check) if args.check else None
    levels = odd_squarefree(args.lo, args.hi)
    results, differ = [], []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = pool.map(lambda n: run_level(n, args.prec, args.timeout, args.src.resolve()),
                        levels)
        for level, code, wall, classes, digest in runs:
            results.append((level, code, wall))
            print(f"{level:6} {code:>7} {wall:8.2f}s {classes:>4} {digest}", flush=True)
            if ref is not None and ref.get(level) != (code, digest):
                differ.append(level)
    print(f"# {len(levels)} levels in [{args.lo}, {args.hi}), --prec {args.prec}")
    slowest = sorted(results, key=lambda r: -r[2])[:10]
    print("# slowest: " + ", ".join(f"{n} {wall:.2f}s" for n, _, wall in slowest))
    timeouts = [n for n, code, _ in results if code == "timeout"]
    print("# timeouts: " + (", ".join(map(str, timeouts)) or "none"))
    if ref is None:
        return 0
    print(f"# differ from {args.check}: " + (", ".join(map(str, differ)) or "none"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
