"""The functions the benchmark traces must keep existing under their names.

`perfbench/job.py` wraps each entry of its TARGETS table by module and
attribute path; a rename in the library would break the traced phase of
the benchmark, so every path is resolved here the way `Tracer.install`
resolves it, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

JOB = Path(__file__).resolve().parents[1] / "perfbench" / "job.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_job", JOB)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job.TARGETS


@pytest.mark.parametrize("name, target", sorted(_targets().items()))
def test_traced_target_resolves(name, target):
    module, paths, _note = target
    for path in paths:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), f"{name}: {module}.{path} is not callable"
