"""The benchmark's hooks into the package stay in place.

``BENCHMARK.json`` counts the lines of every module it names, and
``bench/tracer.py`` wraps named package functions; a change that removes
either should fail here rather than in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import skconverse

ROOT = Path(__file__).resolve().parent.parent


def test_every_src_lines_metric_has_a_module():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prefix = "src.lines."
    mods = [m["name"][len(prefix):] for m in spec["per_layer"]
            if m["name"].startswith(prefix)]
    assert mods
    for mod in mods:
        assert (ROOT / "src" / "skconverse" / f"{mod}.py").is_file(), mod


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    original = skconverse.protosim.protocol_law
    tracer = tracer_mod.Tracer()
    try:
        tracer.install(skconverse)
        assert skconverse.protosim.protocol_law is not original
    finally:
        tracer.uninstall()
    assert skconverse.protosim.protocol_law is original
