"""Every layer the benchmark tracer wraps still exists under the name it
binds, so renaming one fails here rather than only in the harness runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    # the tracer is loaded but never installed: install rebinds module
    # globals for the whole process
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"qcong.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"qcong.{module}.{path}")
    assert tracer.TARGETS and not missing
