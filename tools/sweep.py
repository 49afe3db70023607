"""Run `basis` at every odd square-free level in a range, and report each.

Each level runs `python -m halfint basis --level N --prec P --format json`
in a fresh process, with its own empty cache directory and a wall-clock
timeout; at most `os.cpu_count()` levels run at a time.  Per level it
prints the exit code (or `timeout`), the wall time and the SHA-256 of
stdout, in level order; it ends with the ten slowest levels and the
levels that timed out.  Two sweeps of the same
range can be compared line by line to see whether any answer changed.
Standard library only, and not a test gate:

    python3 tools/sweep.py 1 400 --prec 30 --timeout 60
    python3 tools/sweep.py 1 400 --src OTHER/src      # another checkout
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def odd_squarefree(lo: int, hi: int) -> list[int]:
    """The odd square-free integers in [lo, hi)."""
    def squarefree(n: int) -> bool:
        p = 3
        while p * p <= n:
            if n % (p * p) == 0:
                return False
            p += 2
        return True

    return [n for n in range(max(lo, 1), hi) if n % 2 and squarefree(n)]


def run_level(level: int, prec: int, timeout: float, src: Path) -> tuple[int, str, float, str]:
    """(level, exit code or "timeout", wall seconds, stdout SHA-256)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("HALFINT_CACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="halfint-sweep-") as cache:
        argv = [sys.executable, "-m", "halfint", "basis", "--level", str(level),
                "--prec", str(prec), "--format", "json", "--cache-dir", cache]
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return level, "timeout", time.perf_counter() - start, "-"
        wall = time.perf_counter() - start
    return level, str(done.returncode), wall, hashlib.sha256(done.stdout).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lo", type=int, help="first level tried")
    parser.add_argument("hi", type=int, help="levels below this are tried")
    parser.add_argument("--prec", type=int, default=30)
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per level")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the halfint package (default: this checkout's src)")
    args = parser.parse_args(argv)
    levels = odd_squarefree(args.lo, args.hi)
    results = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = pool.map(lambda n: run_level(n, args.prec, args.timeout, args.src.resolve()),
                        levels)
        for level, code, wall, digest in runs:
            results.append((level, code, wall))
            print(f"{level:6} {code:>7} {wall:8.2f}s {digest}", flush=True)
    print(f"# {len(levels)} levels in [{args.lo}, {args.hi}), --prec {args.prec}")
    slowest = sorted(results, key=lambda r: -r[2])[:10]
    print("# slowest: " + ", ".join(f"{n} {wall:.2f}s" for n, _, wall in slowest))
    timeouts = [n for n, code, _ in results if code == "timeout"]
    print("# timeouts: " + (", ".join(map(str, timeouts)) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
