"""The benchmark's tracer still finds every function it wraps.

`bench/spans.py` wraps package functions by module and name, and drops a
per-layer metric whose function is gone.  This test reads that file and
`BENCHMARK.json` without editing either, so a refactor that renames or
deletes a wrapped function fails here and not only in the benchmark.
"""

import importlib.util
import json
import pathlib

from paymech import ConstraintSystem

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_has_its_wrap_site():
    spans = _load_spans()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sources = {}
    for metric in benchmark["per_layer"]:
        source = spans.LAYER_METRICS[metric["name"]][1]
        sources[metric["name"]] = spans.FED_BY.get(source, source)
    tracer = spans.Tracer()
    try:
        tracer.install()
        unwrapped = {name: source for name, source in sources.items()
                     if source not in tracer.installed}
    finally:
        tracer.uninstall()
    assert unwrapped == {}
    # the tracer reads the dense rows of each system it sees
    assert isinstance(getattr(ConstraintSystem, "a", None), property)
