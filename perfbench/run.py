"""The halfint benchmark: closed-loop `halfint basis` jobs, each in a fresh
interpreter, one at a time, with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Report lines come first; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced phase with --trace 1.  See
perfbench/README.md for the workloads and what each metric measures.
Exits 2 without a result when the checkout holds no halfint sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
JOB = HERE / "job.py"
# a job still running this long after the start is killed and fails, so
# that a run ends within 180 s
DEADLINE_S = 170.0
# The machine's speed drifts by up to 2x, over seconds to minutes, with
# other tenants' load.  So every spawned process is timed against a fixed
# pure-Python reference child (interpreter start plus Fraction
# arithmetic).  The reference runs right after each spawn, and in a pause
# (SIGSTOP ... SIGCONT) every SEGMENT_S while a spawn runs, so each stretch
# of a job's wall time lies between two reference runs.  A stretch counts
# as its seconds times REFERENCE_S over the mean of those two runs: these
# are normalized seconds, the time the job would take while the reference
# takes REFERENCE_S.
REFERENCE = (
    "from fractions import Fraction\n"
    "s = Fraction(0)\n"
    "for i in range(1, 8000):\n"
    "    s += Fraction(i, i + 1) * Fraction(i + 2, i + 3)\n"
)
REFERENCE_S = 0.2  # roughly the reference's own time on the VM it was tuned on
SEGMENT_S = 1.0


@dataclass(frozen=True)
class Workload:
    levels: tuple[int, ...]
    prec: int
    warm: bool  # set-up fills one cache that every timed job reads
    setup_repeats: int
    shuffle: bool = False  # the seed shuffles the level order of each pass


WORKLOADS = {
    "eigen-105": Workload((105,), 100, warm=False, setup_repeats=5),
    "theta-deep": Workload((15,), 1000, warm=True, setup_repeats=3),
    "warm-table": Workload(
        (11, 15, 21, 33, 35, 37, 67), 100, warm=True, setup_repeats=2, shuffle=True
    ),
}


@dataclass
class Run:
    """One spawned process, run to completion."""

    seconds: float  # wall time from spawn to exit, pauses excluded
    norm: float  # the same in normalized seconds
    code: int
    stdout: bytes
    stderr: str


@dataclass
class Job:
    key: str  # the argv without --cache-dir; names the reference digest
    seconds: float
    norm: float
    rss_mb: float
    bytes_written: int  # growth of the cache directory
    error: str | None  # why the job failed; None when every check passed
    spans: list[dict] | None = None


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() else 0


class Runner:
    """Spawns jobs one at a time and checks each one's output."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.expected = json.loads((HERE / "reference.json").read_text())
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("HALFINT_CACHE_DIR", None)
        self.jobs: list[Job] = []
        self.references: list[float] = []  # seconds of every reference run
        self.last_reference = self.reference()

    def spawn(self, argv: list[str], pause: bool = True) -> Run:
        """Run argv to completion, timed against the reference.  Without
        `pause` the run is never paused, so its own clock stays unbroken."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        pauses: list[tuple[float, float, float]] = []  # (stop, cont, reference s)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            done = threading.Event()
            sampler = threading.Thread(target=self.sample, args=(proc, done, pauses))
            timer.start()
            if pause:
                sampler.start()
            try:
                proc.wait()
                end = time.perf_counter()
            finally:
                done.set()
                if pause:
                    sampler.join()
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        after = self.reference()
        seconds = norm = 0.0
        left, begin = self.last_reference, start
        for stop, cont, ref in [p for p in pauses if p[0] < end] + [(end, end, after)]:
            seconds += stop - begin
            norm += (stop - begin) * 2 * REFERENCE_S / (left + ref)
            left, begin = ref, cont
        self.last_reference = after
        stderr = err_path.read_text(errors="replace")
        return Run(seconds, norm, proc.returncode, out_path.read_bytes(), stderr)

    def sample(self, proc: subprocess.Popen, done: threading.Event, pauses: list) -> None:
        """While the process runs, pause it every SEGMENT_S to time a
        reference run."""
        while not done.wait(SEGMENT_S):
            stop = time.perf_counter()
            proc.send_signal(signal.SIGSTOP)
            try:
                ref = self.reference()
            finally:
                proc.send_signal(signal.SIGCONT)
            pauses.append((stop, time.perf_counter(), ref))

    def reference(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE], check=True)
        self.references.append(time.perf_counter() - start)
        return self.references[-1]

    def probe(self) -> float:
        """Start the interpreter and import halfint once; normalized seconds."""
        run = self.spawn([sys.executable, "-c", "import halfint.cli"])
        error = f"import probe exited {run.code}" if run.code or "Traceback" in run.stderr else None
        self.jobs.append(Job("import halfint.cli", run.seconds, run.norm, 0.0, 0, error))
        return run.norm

    def job(self, level: int, prec: int, cache: Path, spans: Path | None = None) -> Job:
        args = ["basis", "--level", str(level), "--prec", str(prec), "--format", "json"]
        key = " ".join(args)
        args += ["--cache-dir", str(cache)]
        argv = [sys.executable, str(JOB), str(spans or "-"), f"job{len(self.jobs)}", *args]
        before = dir_bytes(cache)
        run = self.spawn(argv, pause=spans is None)
        *stderr, last = run.stderr.splitlines() or [""]
        rss_kb = int(last.split()[1]) if last.startswith("peak_rss_kb ") else 0
        job = Job(key, run.seconds, run.norm, rss_kb / 1024, dir_bytes(cache) - before,
                  self.check(key, level, run.code, run.stdout, "\n".join(stderr)))
        if not rss_kb and job.error is None:
            job.error = "no peak_rss_kb line on stderr"
        if spans is not None:
            if spans.is_file():
                job.spans = [json.loads(line) for line in spans.read_text().splitlines()]
                spans.unlink()
            elif job.error is None:
                job.error = "the traced job wrote no spans"
        self.jobs.append(job)
        return job

    def check(self, key: str, level: int, code: int, stdout: bytes, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        if hashlib.sha256(stdout).hexdigest() != self.expected["digests"].get(key):
            return "stdout differs from its reference digest"
        if level == 15:
            gold = self.expected["gold_level_15"]
            payload = json.loads(stdout)
            g = {n: c for n, c in payload["g"]["coeffs"].items() if int(n) < 100}
            h = {n: c for n, c in payload["h"]["coeffs"].items() if int(n) <= 23}
            if g != gold["g_below_100"] or h != gold["h_through_23"]:
                return "g or h differs from the level-15 gold coefficients"
        return None


class Bench:
    def __init__(self, workload: Workload, seed: int, runner: Runner):
        self.workload = workload
        self.rng = random.Random(seed)
        self.runner = runner
        self.cache: Path | None = None  # the warm cache the timed jobs read

    def set_up(self, index: int) -> float:
        """One set-up, in normalized seconds: an import probe, then for a
        warm workload one cold job per level into a fresh cache directory."""
        norm = self.runner.probe()
        if self.workload.warm:
            self.cache = self.runner.work / f"cache{index}"
            self.cache.mkdir()
            for level in self.workload.levels:
                norm += self.runner.job(level, self.workload.prec, self.cache).norm
        return norm

    def measure(self, budget: float, trace: bool) -> list[list[Job]]:
        """Whole passes, each running every level once, while the next pass
        is expected to end within the budget; at least one pass."""
        passes: list[list[Job]] = []
        start = time.perf_counter()
        while True:
            levels = list(self.workload.levels)
            if self.workload.shuffle:
                self.rng.shuffle(levels)
            passes.append([self.one_job(level, trace) for level in levels])
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > budget:
                return passes

    def one_job(self, level: int, trace: bool) -> Job:
        spans = self.runner.work / "spans.jsonl" if trace else None
        if self.workload.warm:
            return self.runner.job(level, self.workload.prec, self.cache, spans)
        cache = self.runner.work / "cold-cache"
        cache.mkdir()
        try:
            return self.runner.job(level, self.workload.prec, cache, spans)
        finally:
            shutil.rmtree(cache)


def job_stats(passes: list[list[Job]]) -> dict:
    jobs = [job for jobs in passes for job in jobs]
    norm = sorted(job.norm for job in jobs)
    by_key: dict[str, list[float]] = defaultdict(list)
    for job in jobs:
        by_key[job.key].append(job.norm)
    out = {
        # each distinct job's median, averaged over the workload's distinct
        # jobs, so that every level of a table weighs the same
        "p50": statistics.fmean(statistics.median(v) for v in by_key.values()),
        "wall_p50": statistics.median(job.seconds for job in jobs),
        "n": len(norm),
    }
    if len(norm) >= 20:
        # the highest percentile with at least ten jobs beyond it
        out["tail"] = norm[-11]
        out["tail_pct"] = 100 * (len(norm) - 10) / len(norm)
    return out


def per_pass(total, passes: int):
    return total // passes if isinstance(total, int) and total % passes == 0 else total / passes


def layer_metrics(passes: list[list[Job]]) -> tuple[dict, dict]:
    """Per-layer metrics per pass, averaged over the traced passes, and the
    per-span table (calls, inclusive s, self s) behind them."""
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, int] = defaultdict(int)
    for job in (job for jobs in passes for job in jobs):
        spans = job.spans
        built = set()
        for span in spans:
            names, parent = [], span["parent"]
            while parent is not None:
                names.append(spans[parent]["name"])
                parent = spans[parent]["parent"]
            name = span["name"]
            row = table[name]
            row[0] += 1
            row[2] += span["self"]
            if name not in names:  # inclusive time counts outermost spans only
                row[1] += span["end"] - span["start"]
            if name == "lattice.count_by_value":
                counts["lattice.points"] += span["points"]
                if "theta.ternary_theta" in names:
                    counts["theta.points"] += span["points"]
            elif name == "lattice.norm_counts" and "brandt.matrix" in names:
                parent = span["parent"]
                while spans[parent]["name"] != "brandt.matrix":
                    parent = spans[parent]["parent"]
                built.add(parent)
            elif name == "brandt.eigenlines":
                counts["brandt.lines_found"] += span["lines"]
                if "cli.eigenline_candidates" in names:
                    counts["cli.subsets_refined"] += 1
                    counts["lines_in_search"] += span["lines"]
            elif name == "cli.eigenline_candidates":
                counts["admissible"] += span["admissible"]
            counts["brandt.classes"] += span.get("classes", 0)
        counts["brandt.degrees_built"] += len(built)
        counts["cli.cache.bytes_written"] += job.bytes_written

    n = len(passes)

    def inclusive(*names):
        return sum(table[name][1] for name in names) / n

    def calls(name):
        return per_pass(table[name][0], n)

    def self_s(name):
        return table[name][2] / n

    metrics = {
        "cli.eigenline_candidates.s": (inclusive("cli.eigenline_candidates"), "s"),
        "cli.eigenline_candidates.self_s": (self_s("cli.eigenline_candidates"), "s"),
        "cli.subsets_refined": (per_pass(counts["cli.subsets_refined"], n), "count"),
        "cli.admissible_ratio": (counts["admissible"] / max(1, counts["lines_in_search"]), "ratio"),
        "cli.cache.bytes_written": (per_pass(counts["cli.cache.bytes_written"], n), "bytes"),
        "quat.algebra_ramified_at.s": (inclusive("quat.algebra_ramified_at"), "s"),
        "lattice.eichler_order.s": (inclusive("lattice.eichler_order"), "s"),
        "lattice.norm_counts.calls": (calls("lattice.norm_counts"), "count"),
        "lattice.count_by_value.s": (inclusive("lattice.count_by_value"), "s"),
        "lattice.points": (per_pass(counts["lattice.points"], n), "count"),
        "brandt.class_set.s": (inclusive("brandt.ideal_classes", "brandt.from_state"), "s"),
        "brandt.classes": (per_pass(counts["brandt.classes"], n), "count"),
        "brandt.matrix.s": (inclusive("brandt.matrix"), "s"),
        "brandt.matrix.calls": (calls("brandt.matrix"), "count"),
        "brandt.degrees_built": (per_pass(counts["brandt.degrees_built"], n), "count"),
        "brandt.eigenlines.s": (inclusive("brandt.eigenlines"), "s"),
        "brandt.eigenlines.self_s": (self_s("brandt.eigenlines"), "s"),
        "brandt.lines_found": (per_pass(counts["brandt.lines_found"], n), "count"),
        "brandt.to_state.s": (inclusive("brandt.to_state"), "s"),
        "theta.trace_zero_lattice.s": (inclusive("theta.trace_zero_lattice"), "s"),
        "theta.ternary_theta.s": (inclusive("theta.ternary_theta"), "s"),
        "theta.points": (per_pass(counts["theta.points"], n), "count"),
        "theta.kohnen_form.self_s": (self_s("theta.kohnen_form"), "s"),
        "lift.assemble_h.s": (inclusive("lift.assemble_h"), "s"),
        "qexp.serialize.s": (inclusive("qexp.serialize"), "s"),
    }
    return metrics, {name: [row[0] / n, row[1] / n, row[2] / n] for name, row in table.items()}


def report_layers(traced: list[list[Job]], untraced_p50: float) -> dict:
    """Print the per-span table of the traced passes; return the per-layer
    metrics."""
    layers, table = layer_metrics(traced)
    jobs = [job for jobs in traced for job in jobs]
    overhead = job_stats(traced)["p50"] - untraced_p50
    unspanned = statistics.median(
        job.seconds - sum(span["self"] for span in job.spans) for job in jobs)
    layers["trace.overhead_s"] = (overhead, "s")
    layers["trace.unspanned_s"] = (unspanned, "s")
    total_self = sum(row[2] for row in table.values())
    print(f"traced {len(jobs)} jobs in {len(traced)} passes; per pass:")
    print(f"  {'span':28s} {'calls':>9s} {'incl_s':>9s} {'self_s':>9s} {'self%':>6s}")
    for name, (calls, incl, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:28s} {calls:9.1f} {incl:9.4f} {own:9.4f} {100 * own / total_self:6.1f}")
    print(f"  self times sum to {total_self:.4f} s per pass; unspanned (interpreter start "
          f"and exit) {unspanned:.4f} s per job; trace overhead {overhead:+.4f} s per job")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "halfint" / "cli.py").is_file():
        print(f"error: no halfint sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started + DEADLINE_S)
        bench = Bench(workload, args.seed, runner)
        setups = [bench.set_up(i) for i in range(workload.setup_repeats)]
        passes = bench.measure(args.seconds, trace=False)
        traced = bench.measure(args.seconds, trace=True) if args.trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    stats = job_stats(passes)
    failed = [job for job in runner.jobs if job.error]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"arch={platform.machine()}")
    print(f"setup_s {statistics.median(setups):.4f} s (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"job_s.p50 {stats['p50']:.4f} s ({stats['n']} jobs in {len(passes)} passes)")
    print(f"wall_s.p50 {stats['wall_p50']:.4f} s (wall time, not normalized); reference "
          f"{statistics.median(runner.references):.4f} s median of {len(runner.references)} "
          f"(normalized seconds assume {REFERENCE_S} s)")
    if "tail" in stats:
        print(f"job_s.tail p{stats['tail_pct']:.0f} {stats['tail']:.4f} s "
              f"({stats['n']} jobs, 10 beyond)")
    print(f"fail_frac {len(failed) / len(runner.jobs):.4f} "
          f"({len(failed)} of {len(runner.jobs)} jobs, set-up included)")
    for job in failed[:5]:
        print(f"failed: {job.key}: {job.error}")
    peak = max(job.rss_mb for jobs in passes for job in jobs)
    print(f"peak_rss_mb {peak:.2f} MB")

    if not args.trace:
        metrics = {
            "job_s.p50": {"value": stats["p50"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    elif failed:
        metrics = {}
    else:
        metrics = report_layers(traced, stats["p50"])
    result = {
        "correct": not failed,
        "attempted": len(runner.jobs),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
