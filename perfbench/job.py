"""Run one `halfint` job in this process, as the `halfint` console script
does, optionally with a span around each call into a layer's public
functions.

    PYTHONPATH=src python3 perfbench/job.py SPANS_FILE JOB_ID ARGS...

ARGS are the `halfint` command-line arguments, and the job's stdout is
exactly what `halfint ARGS...` prints.  With SPANS_FILE `-` nothing is
traced.  Otherwise spans are kept in memory and written to SPANS_FILE at
exit, one JSON object per line, with the keys job, id, parent, name,
start, end, self (seconds; start and end are `time.perf_counter`
readings, which share one clock across processes on Linux) and any
counts noted from the call's result.

The last line on stderr is `peak_rss_kb N`, this process's own peak
resident memory.  The parent cannot take it from `wait4`, because on
Linux a child's `ru_maxrss` also covers the parent's memory that the
child held between fork and exec.

Functions are wrapped by attribute, so a call made through any binding
of a wrapped function is timed: the module's own name, the names other
halfint modules bind with `from ... import`, and class attributes.
`halfint.numth` is not wrapped: its calls are too small and too many to
time from outside, and their cost shows in the callers' self time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

# span name -> (module, attribute paths, note taking the call's result)
TARGETS = {
    "cli.eigenline_candidates": (
        "halfint.cli", ["eigenline_candidates"], lambda r: {"admissible": len(r)}),
    "quat.algebra_ramified_at": ("halfint.quat", ["algebra_ramified_at"], None),
    "lattice.eichler_order": ("halfint.lattice", ["eichler_order"], None),
    "lattice.norm_counts": ("halfint.lattice", ["Lattice4.norm_counts"], None),
    "lattice.count_by_value": (
        "halfint.lattice", ["count_by_value"], lambda r: {"points": sum(r.values())}),
    "brandt.ideal_classes": ("halfint.brandt", ["ideal_classes"], lambda r: {"classes": r.h}),
    "brandt.from_state": (
        "halfint.brandt", ["IdealClassSet.from_state"], lambda r: {"classes": r.h}),
    "brandt.to_state": ("halfint.brandt", ["IdealClassSet.to_state"], None),
    "brandt.matrix": ("halfint.brandt", ["IdealClassSet.brandt"], None),
    "brandt.eigenlines": (
        "halfint.brandt", ["cuspidal_eigenlines"], lambda r: {"lines": len(r)}),
    "theta.trace_zero_lattice": ("halfint.theta", ["trace_zero_lattice"], None),
    "theta.ternary_theta": ("halfint.theta", ["ternary_theta"], None),
    "theta.kohnen_form": ("halfint.theta", ["kohnen_form"], None),
    "lift.assemble_h": ("halfint.lift", ["assemble_h"], None),
    "qexp.serialize": ("halfint.qexp", ["QExpansion.to_text", "QExpansion.to_json_dict"], None),
}


class Tracer:
    """In-memory spans of one job; nesting follows the call stack."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def begin(self, name: str, start: float | None = None) -> dict:
        rec = {
            "job": self.job,
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter() if start is None else start,
        }
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, note):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if note is not None:
                rec.update(note(result))
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target function in the loaded
        halfint modules with its traced wrapper."""
        wrappers = {}
        for name, (module, paths, note) in TARGETS.items():
            for path in paths:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, note)))
                elif outer:
                    setattr(owner, attr, self.wrap(name, raw, note))
                else:
                    wrappers[id(raw)] = self.wrap(name, raw, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "halfint" and not mod_name.startswith("halfint."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def dump(self, path: str) -> None:
        """Write the spans with their self times (duration minus the time
        covered by direct children)."""
        children = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                children[rec["parent"]] += rec["end"] - rec["start"]
        with open(path, "w") as out:
            for rec in self.spans:
                rec["self"] = rec["end"] - rec["start"] - children[rec["id"]]
                out.write(json.dumps(rec) + "\n")


def peak_rss_kb() -> int:
    """VmHWM of this process image (it excludes memory held before exec)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(spans_path: str, job: str, argv: list[str]) -> int:
    tracer = Tracer(job)
    rec = tracer.begin("cli.import", start=_T0)
    from halfint import cli

    tracer.end(rec)
    if spans_path != "-":
        tracer.install()
    rec = tracer.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(rec)
        sys.stdout.flush()
        if spans_path != "-":
            tracer.dump(spans_path)
        print(f"peak_rss_kb {peak_rss_kb()}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
