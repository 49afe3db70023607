"""The scripts under tools/ end quietly when their stdout closes early."""

import os
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# a stand-in for `python -m halfint basis`: it records each run's level and
# pid, and only level 3 finishes before the sweep's 300 s timeout
FAKE_MAIN = """
import json, os, sys, time
level = sys.argv[sys.argv.index("--level") + 1]
with open(os.path.join(os.environ["SWEEP_TEST_LOG"], str(os.getpid())), "w") as f:
    f.write(level)
if level != "3":
    time.sleep(300)
print(json.dumps({"class_number": 1}))
"""


def run_with_closed_stdout(argv, env=None):
    """(exit code, stderr, wall seconds) of argv, its stdout a pipe whose
    read end is closed before the process writes to it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr, time.perf_counter() - start


def test_loc_exits_3_when_stdout_closes():
    code, err, _ = run_with_closed_stdout([sys.executable, str(TOOLS / "loc.py")])
    assert (code, err) == (3, "error: cannot write output: Broken pipe\n")


def test_sweep_stops_every_level_when_stdout_closes(tmp_path):
    package = tmp_path / "src" / "halfint"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(FAKE_MAIN)
    log = tmp_path / "log"
    log.mkdir()
    argv = [sys.executable, str(TOOLS / "sweep.py"), "3", "400", "--prec", "5",
            "--timeout", "300", "--src", str(tmp_path / "src")]
    code, err, wall = run_with_closed_stdout(argv, dict(os.environ, SWEEP_TEST_LOG=str(log)))
    assert (code, err) == (3, "error: cannot write output: Broken pipe\n")
    # the levels running when level 3's line fails to print are killed, not
    # waited for, and no level starts after them
    assert wall < 60
    started = {int(path.name): int(path.read_text()) for path in log.iterdir()}
    workers = os.cpu_count() or 1
    levels = [n for n in range(3, 400, 2) if all(n % (p * p) for p in range(3, 20, 2))]
    assert sorted(started.values()).count(3) == 2  # cold and warm
    assert set(started.values()) <= set(levels[: workers + 1])
    for pid in started:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"a level's process {pid} is still running")
