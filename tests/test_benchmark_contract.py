"""The benchmark's contract with the package.

`perfbench/tracing.py` wraps package functions and operators by name, and
when a name it wraps is gone it leaves every metric that needs it out of
the report instead of failing the run: a missing `paths_from` alone drops
`graph.loops` and `graph.enumerate_self_s`.  So a rename or removal in
`src/` would quietly empty a layer of the benchmark.  These tests fail
instead: the tracer finds every target, every name the workloads read
exists, and a short traced run ends in strict JSON that carries every
per-layer metric `BENCHMARK.json` declares.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import planaralg
from planaralg import RadicalScalar, build_graph
from conftest import corpus_entry

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = ("cli", "errors", "graph", "markov", "radical", "symmetry", "tangles")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    for name in MODULES:
        importlib.import_module(f"planaralg.{name}")
    tracing = load_tracing()
    original = RadicalScalar.__mul__
    tracer = tracing.Tracer()
    try:
        tracer.install(planaralg)
        assert RadicalScalar.__mul__ is not original
        assert tracer.absent == set()
        assert set(tracing.EXPECTED_FUNCTION_SPANS) <= tracer.present
        assert {name for *_, name in tracing.CLASS_TARGETS} <= tracer.present
    finally:
        tracer.uninstall()
    assert RadicalScalar.__mul__ is original


def perfbench_reads(owner: str) -> set[str]:
    """The attributes read as `owner.name` or `self.owner.name` in perfbench/*.py."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                value = node.value
                if getattr(value, "id", None) == owner or getattr(value, "attr", None) == owner:
                    found.add(node.attr)
    return found


def test_every_name_the_workloads_read_exists():
    # `P` is the package in the workloads, `g` a built graph.
    package, graph = perfbench_reads("P"), perfbench_reads("g")
    assert {"build_graph", "verify_temperley_lieb", "PlanarElement"} <= package
    assert {"enumerate_loops", "spin_factor", "edges_up", "weights_b"} <= graph
    assert sorted(package - set(planaralg.__all__)) == []
    g = build_graph(corpus_entry("C-in-C2").inclusion())
    assert sorted(name for name in graph if not hasattr(g, name)) == []


def test_traced_run_reports_every_declared_metric():
    declared = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) >= 50
    argv = ["perfbench/run.py", "--workload", "tl-exact", "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]

    def refuse(constant):
        raise ValueError(f"{constant} in the result line")

    result = json.loads(done.stdout.splitlines()[-1], parse_constant=refuse)
    assert result["correct"] is True and result["failed"] == 0
    assert [name for name in declared if name not in result["metrics"]] == []
