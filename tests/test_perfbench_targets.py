"""The benchmark tracer (perfbench/spans.py) patches package attributes by
name; a rename must fail here rather than crash a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, f"tracer targets missing from the package: {missing}"
