"""The scripts under tools/: they end quietly when their stdout closes
early, and the sweep reports each run's CPU time beside its wall time."""

import hashlib
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


# a stand-in for `python -m halfint basis` whose levels differ in CPU and
# wall time: 3 computes for 0.4 s, 5 sleeps for 0.6 s and 7 past the timeout
TIMED_MAIN = """
import json, sys, time
level = sys.argv[sys.argv.index("--level") + 1]
if level == "3":
    start = time.process_time()
    while time.process_time() - start < 0.4:
        pass
else:
    time.sleep(0.6 if level == "5" else 60)
print(json.dumps({"class_number": 1}))
"""


def test_sweep_reports_cpu_time_and_checks_the_old_layout(tmp_path):
    package = tmp_path / "src" / "halfint"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(TIMED_MAIN)
    digest = hashlib.sha256(b'{"class_number": 1}\n').hexdigest()
    # a reference in the layout printed before the CPU column was added
    reference = tmp_path / "reference.txt"
    reference.write_text(
        f"     3       0     9.00s    1 {digest}\n"
        f"     5       0     9.00s    1 {digest}\n"
        "     7 timeout     9.00s    - -\n"
    )
    argv = [sys.executable, str(TOOLS / "sweep.py"), "3", "8", "--prec", "5", "--timeout", "3",
            "--src", str(tmp_path / "src"), "--check", str(reference)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    runs = {int(line.split()[0]): line.split() for line in lines if not line.startswith("#")}
    assert [fields[:2] for fields in runs.values()] == [["3", "0"], ["5", "0"], ["7", "timeout"]]
    wall = {n: float(fields[2].rstrip("s")) for n, fields in runs.items()}
    cpu = {n: float(fields[3].rstrip("s")) for n, fields in runs.items()}
    assert cpu[3] >= 0.35 and wall[3] >= cpu[3] - 0.05
    assert wall[5] >= 0.55 and cpu[5] < 0.3
    assert wall[7] >= 3
    # ranked by CPU time, the computing level comes before the sleeping one
    (ranked,) = [line for line in lines if line.startswith("# most CPU time: ")]
    assert ranked.removeprefix("# most CPU time: ").split(", ")[0].startswith("3 ")
    assert "# timeouts: 7" in lines
    assert f"# differ from {reference}: none" in lines
