"""Run `basis` at every odd square-free level in a range, and report each.

Each level N >= 3 runs `python -m halfint basis --level N --prec P
--format json` twice, each in a fresh process with a wall-clock
timeout: cold on its own empty cache directory, then warm on the cache
the cold run wrote.  At most `os.cpu_count()` levels run at a time.  Per
level it prints the cold run's exit code (or `timeout`), wall time, CPU
time (the process's own user and system time, which outside load moves
far less than the wall time), class number read from the JSON (`-` when
the run printed none) and the SHA-256 of stdout, in level order; it ends
with the ten levels of most CPU time, the levels that timed out, and the
levels whose warm run's exit code or stdout digest differs from the cold
run's, which make the sweep exit 1.  Standard library only (Unix):

    python3 tools/sweep.py 3 400 --prec 30 --timeout 60
    python3 tools/sweep.py 3 400 --src OTHER/src      # another checkout
    python3 tools/sweep.py 3 150 --check tools/sweep_reference.txt

With `--check FILE` it compares the exit code and the stdout digest of
each level it runs against FILE, the printed output of an earlier sweep
at the same `--prec` (lines starting with `#` are skipped, and so is
every field between the exit code and the digest), and exits 1 naming
every level that differs or that FILE does not list; any sub-range of
FILE can be checked.  `tools/sweep_reference.txt` is the sweep of
3 <= N < 1100 at `--prec 30`, in which no level took 16 s, two levels at
a time on two cores, and `tools/sweep_reference_2100.txt` the sweep of
1100 <= N < 2100 at the same precision; both were printed before the CPU
column was added.

When stdout closes early (`... | head -1`), the sweep starts no further
level, kills the processes of the levels running, and exits 3 with one
line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
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


class Processes:
    """The level processes of one sweep.  After `stop`, no process starts,
    and the ones running have been killed."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # pid -> why it was killed ("timeout" or "stopped"), or None
        self._running: dict[int, str | None] = {}
        self._stopped = False

    def run(self, argv: list[str], env: dict, timeout: float) -> tuple[str, float, float, bytes]:
        """(exit code or "timeout" or "stopped", wall seconds, CPU seconds,
        stdout) of one fresh process; the CPU seconds are its own user and
        system time, read when it is reaped."""
        start = time.perf_counter()
        with self._lock:
            if self._stopped:
                return "stopped", 0.0, 0.0, b""
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
            self._running[proc.pid] = None
        timer = threading.Timer(timeout, self._kill, (proc.pid, "timeout"))
        timer.start()
        with proc.stdout:
            out = proc.stdout.read()
        # wait for the exit without reaping, so that no kill can reach the
        # pid once it is reaped and free for another process
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        timer.cancel()
        with self._lock:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            killed = self._running.pop(proc.pid)
        wall = time.perf_counter() - start
        if self._stopped or killed == "stopped":
            return "stopped", 0.0, 0.0, b""
        if killed == "timeout":
            return "timeout", wall, 0.0, b""
        return str(proc.returncode), wall, usage.ru_utime + usage.ru_stime, out

    def _kill(self, pid: int, why: str) -> None:
        """Kill a process that is not reaped and not yet killed."""
        with self._lock:
            if pid in self._running and self._running[pid] is None:
                self._running[pid] = why
                os.kill(pid, signal.SIGKILL)

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for pid in list(self._running):
                self._kill(pid, "stopped")


def run_level(
    level: int, prec: int, timeout: float, src: Path, procs: Processes
) -> tuple[int, str, float, float, str, str, bool]:
    """(level, exit code or "timeout" or "stopped", wall seconds, CPU
    seconds, class number or "-", stdout SHA-256, whether the warm run
    matched), the middle five of the cold run."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("HALFINT_CACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="halfint-sweep-") as cache:
        argv = [sys.executable, "-m", "halfint", "basis", "--level", str(level),
                "--prec", str(prec), "--format", "json", "--cache-dir", cache]
        code, wall, cpu, out = procs.run(argv, env, timeout)
        if code in ("timeout", "stopped"):
            return level, code, wall, cpu, "-", "-", True
        warm_code, _, _, warm_out = procs.run(argv, env, timeout)
    classes = str(json.loads(out)["class_number"]) if out.strip() else "-"
    warm_same = (warm_code, warm_out) == (code, out)
    return level, code, wall, cpu, classes, hashlib.sha256(out).hexdigest(), warm_same


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
    procs = Processes()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = pool.map(
            lambda n: run_level(n, args.prec, args.timeout, args.src.resolve(), procs), levels
        )
        try:
            return report(args, levels, runs, ref)
        except BrokenPipeError as exc:
            procs.stop()
            pool.shutdown(cancel_futures=True)
            # the interpreter's own flush at exit would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
            return 3


def report(args: argparse.Namespace, levels: list[int], runs, ref) -> int:
    """Print each level's line as its runs finish, then the summary; the
    sweep's exit code."""
    results, differ, warm_differ = [], [], []
    for level, code, wall, cpu, classes, digest, warm_same in runs:
        results.append((level, code, wall, cpu))
        print(f"{level:6} {code:>7} {wall:8.2f}s {cpu:7.2f}s {classes:>4} {digest}", flush=True)
        if ref is not None and ref.get(level) != (code, digest):
            differ.append(level)
        if not warm_same:
            warm_differ.append(level)
    print(f"# {len(levels)} levels in [{args.lo}, {args.hi}), --prec {args.prec}")
    slowest = sorted(results, key=lambda r: -r[3])[:10]
    print("# most CPU time: " + ", ".join(
        f"{n} {cpu:.2f}s (wall {wall:.2f}s)" for n, _, wall, cpu in slowest))
    timeouts = [n for n, code, _, _ in results if code == "timeout"]
    print("# timeouts: " + (", ".join(map(str, timeouts)) or "none"))
    print("# warm differs from cold: " + (", ".join(map(str, warm_differ)) or "none"))
    if ref is not None:
        print(f"# differ from {args.check}: " + (", ".join(map(str, differ)) or "none"))
    sys.stdout.flush()
    return 1 if differ or warm_differ else 0


if __name__ == "__main__":
    sys.exit(main())
