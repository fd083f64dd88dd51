"""What the benchmark relies on in the library.

``bench/`` is imported as it stands, never edited: every name it traces or
probes must resolve, and its tracer must solve the golden example with the
counts that ``bench/run.py`` pins, then put every binding back.  Each
workload in BENCHMARK.json also runs once, untraced, as the benchmark runs
it.  A library change that breaks ``bench/run.py`` fails here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lacuna

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load(name):
    """bench/<name>.py as a module registered under a name of its own."""
    key = f"_bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[key] = mod
        spec.loader.exec_module(mod)
    return sys.modules[key]


@pytest.fixture(scope="module")
def bench():
    return load("tracer"), load("run"), load("workloads")


def resolve(name):
    """The library object behind a bench span name, e.g. ``sparse_interp.PrimeImage.from_poly``;
    the box's ``blackbox.eval*`` names resolve on ModularBlackBox."""
    layer, *attrs = name.split(".")
    obj = sys.modules[f"lacuna.{layer}"]
    if layer == "blackbox" and attrs[0].startswith("eval"):
        obj = obj.ModularBlackBox
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_traced_methods_are_defined_on_their_classes(bench):
    tracer, _, _ = bench
    tracer.layer_modules()
    for layer, cls_name, attrs in tracer.METHODS:
        cls = getattr(sys.modules[f"lacuna.{layer}"], cls_name)
        for attr in attrs:
            assert attr in vars(cls), f"{layer}.{cls_name}.{attr}"


def test_phase_and_probe_names_resolve(bench):
    tracer, run, _ = bench
    tracer.layer_modules()
    names = [*run.PHASES, *run.make_probes(run.fresh_counts())]
    for name in names:
        assert callable(resolve(name)), name


def test_tracer_solves_golden_with_the_pinned_counts(bench):
    tracer, run, workloads = bench
    gold = workloads.golden(lacuna)
    boxes = [gold.box]
    trace = tracer.Tracer()
    before = trace.bindings(boxes)
    trace.install(boxes)
    try:
        answer = lacuna.full_interpolate(gold.box, gold.bounds)
    finally:
        trace.restore()
    after = trace.bindings(boxes)
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert answer == gold.poly
    assert gold.box.calls == run.GOLDEN_QUERIES
    assert gold.box.grid_evals == sum(run.GOLDEN_GRID_EVALS)
    spans = {trace.names[i] for i in trace.span_name}
    assert {*run.PHASES, "sparse_interp.PrimeImage.from_poly"} <= spans


def test_dense_workload_solves_every_instance(bench):
    # deg <= 2t: every prime fails the degree test, which grid_shift takes
    # from one finite difference before any shift search; no benchmarked
    # workload covers it
    _, _, workloads = bench
    for inst in workloads.build(lacuna, "dense", 1):
        answer = lacuna.full_interpolate(inst.box, inst.bounds)
        assert workloads.is_correct(inst, answer), inst.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_workload_solves_its_set_once(workload):
    # one untraced pass of the set (--seconds 0), run as the benchmark runs it
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert result["metrics"]["success_rate"]["value"] == 1.0
