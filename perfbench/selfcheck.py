"""Check that the benchmark's work counts repeat exactly across two traced
runs of the same code.

    python3 perfbench/selfcheck.py --workload NAME [--seconds S]

Runs `perfbench/run.py --trace 1` twice, with seeds 1 and 2, and compares
every per-layer metric that is not a time (`lattice.points`,
`theta.points`, `lattice.norm_counts.calls`, `brandt.degrees_built`,
`brandt.lines_found`, `cli.cache.bytes_written` and the other counts).
Exits 1 when a count differs or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int, seconds: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: the traced run is not correct:\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    first, second = (traced_counts(args.workload, seed, args.seconds) for seed in (1, 2))
    status = 0
    for name in sorted(first):
        same = first[name] == second.get(name)
        status |= not same
        print(f"{'ok  ' if same else 'DIFF'} {name} {first[name]} {second.get(name)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
