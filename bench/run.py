"""Benchmark of the lacuna pipeline on seeded instance sets.

    python3 bench/run.py --workload lacunary --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``.
One run is one process: it sets up (imports the library, builds the
instance set, solves the golden example once), then solves the whole
instance set over and over, in a fixed order, until ``--seconds`` have
passed, and checks every answer exactly.  The set-up is repeated nine
times, spread over the run, and the median is reported.

Workloads: ``lacunary``, ``program`` and ``shift`` (the ones in
BENCHMARK.json), plus ``dense``, which ``bench/workloads.py`` explains.

``--trace 0`` reports the end-to-end metrics: set solve time (per instance
the median over passes, summed), black-box queries, full-grid reductions,
success rate, set-up time, peak memory.  The two times are scaled to a
fixed machine speed (see ``Reference``); the wall times are printed above
the result.
``--trace 1`` alternates untraced passes with passes under the outside-in
tracer and reports the per-layer metrics; it also checks that the traced
passes give the same answers and counts and leave every binding as it was,
and writes the spans to ``bench/out/``.  Per-layer names are
``<module>.<function>.calls`` (every call), ``.self_s`` (span time minus
child spans) and ``.s`` (span time), plus counters read at the spans and
``share.<module>``, the module's self time over the traced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 9
REFERENCE_S = 0.004  # seconds of Reference.measure that solve_s and setup_s are scaled to
GOLDEN_QUERIES = 55252
GOLDEN_GRID_EVALS = (1, 21)  # full-grid reductions in the shift and the interpolation phase
PHASES = ("sparsest_shift.sparsest_shift", "sparse_interp.sparse_interpolate")


def single_blas_thread():
    """Run numpy's BLAS on one thread, set before numpy is imported.

    The library's matrix products are small (at most 64 x 4096 here), and a
    second thread did not make them faster on a 2-CPU machine; it did make
    pass times swing whenever another process took one of the CPUs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Threads in numpy's OpenBLAS pool, or 0 when that cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return 0


class Reference:
    """A fixed task that measures the machine's speed during the run.

    On a shared machine the speed drifts by 15-30% over minutes, and runs
    minutes apart saw it differently.  The task does the library's two kinds
    of work, Python integer arithmetic and numpy vector and matrix products,
    and is timed before every solve; the run's times are scaled by
    REFERENCE_S over its median time, which gives seconds on a machine where
    the task takes REFERENCE_S.  Build it after ``single_blas_thread``.
    """

    def __init__(self):
        import numpy

        self.vec = numpy.arange(1 << 15, dtype=numpy.int64)
        self.mat = (numpy.arange(64 * 2048) % 97).astype(numpy.float64).reshape(64, 2048)
        self.times = []

    def measure(self):
        t0 = time.perf_counter()
        acc = 1
        for i in range(15000):
            acc = (acc * 7919 + i) % 1000003
        v = self.vec
        for _ in range(10):
            v = v * v % 4093
        for _ in range(2):
            self.mat @ self.mat.T
        self.times.append(time.perf_counter() - t0)

    def scale(self):
        return REFERENCE_S / statistics.median(self.times)


def import_library():
    """A fresh import of lacuna from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "lacuna" or m.startswith("lacuna.")]:
        del sys.modules[name]
    lc = importlib.import_module("lacuna")
    if Path(lc.__file__).resolve().parent != ROOT / "src" / "lacuna":
        raise RuntimeError(f"imported lacuna from {lc.__file__}, not from {ROOT / 'src'}")
    return lc


def setup_once(workloads, workload, seed):
    """One set-up from a fresh import of the library: build the instance set
    and solve the golden example.

    Returns the import, its instances, the seconds taken, whether the golden
    example solved with exactly the expected counts, and the instance text.
    """
    t0 = time.perf_counter()
    lc = import_library()
    instances = workloads.build(lc, workload, seed)
    gold = workloads.golden(lc)
    answer = lc.full_interpolate(gold.box, gold.bounds)
    seconds = time.perf_counter() - t0
    ok = answer == gold.poly and gold.box.calls == GOLDEN_QUERIES
    ok &= gold.box.grid_evals == sum(GOLDEN_GRID_EVALS)
    return lc, instances, seconds, ok, "\n".join(inst.spec(lc) for inst in instances)


class Setup:
    """The run's set-up: the first repetition gives the library and instances
    that are solved; ``repeat`` adds one more timed repetition and then puts
    the first import's modules back in ``sys.modules``, where the tracer
    finds them.
    """

    def __init__(self, workloads, workload, seed):
        self.args = (workloads, workload, seed)
        self.lc, self.instances, seconds, self.ok, spec = setup_once(*self.args)
        self.times, self.specs = [seconds], {spec}
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "lacuna" or name.startswith("lacuna.")}
        gold = workloads.golden(self.lc)
        self.lc.sparsest_shift(gold.box, gold.bounds)
        self.ok &= gold.box.grid_evals == GOLDEN_GRID_EVALS[0]

    def repeat(self):
        _, _, seconds, ok, spec = setup_once(*self.args)
        for name in [m for m in sys.modules if m == "lacuna" or m.startswith("lacuna.")]:
            del sys.modules[name]
        sys.modules.update(self.modules)
        self.times.append(seconds)
        self.specs.add(spec)
        self.ok &= ok

    def digest(self):
        return hashlib.sha256(min(self.specs).encode()).hexdigest()[:16]


def solve_pass(lc, instances, tracer=None, reference=None):
    """Solve every instance once; returns (per-instance seconds, records)."""
    records, times = [], []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.current_instance = i
        if reference is not None:
            reference.measure()
        calls, grids = inst.box.calls, inst.box.grid_evals
        t0 = time.perf_counter()
        try:
            answer = lc.full_interpolate(inst.box, inst.bounds)
        except Exception as exc:  # a failed solve is counted and the run goes on
            answer = exc
        times.append(time.perf_counter() - t0)
        records.append((answer, inst.box.calls - calls, inst.box.grid_evals - grids))
    return times, records


def set_time(runs):
    """Seconds to solve the whole set: per instance, the median over passes, summed.

    Taking the median per instance keeps a burst of load from another
    process, which hits a few solves, out of the figure.
    """
    return sum(statistics.median(times) for times in zip(*(run[0] for run in runs)))


def outcome(workloads, instances, records):
    """(answer texts, failures) of one pass; a raise or a wrong answer fails."""
    texts, failed = [], 0
    for inst, (answer, _, _) in zip(instances, records):
        if isinstance(answer, Exception):
            texts.append(f"raised {type(answer).__name__}: {answer}")
            failed += 1
        else:
            texts.append(answer.to_json())
            failed += not workloads.is_correct(inst, answer)
    return texts, failed


def layer_metrics(tracer, lo, hi, pass_s, counts):
    """Per-layer metrics of the traced pass whose spans are lo..hi-1."""
    names = tracer.names
    dur, own = tracer.self_times(lo, hi)
    calls, self_ns, total_ns = {}, {}, {}
    phase_of = {}
    phase_grids = dict.fromkeys(PHASES, 0)
    layer_ns = {}
    for k, i in enumerate(range(lo, hi)):
        name = names[tracer.span_name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[k]
        total_ns[name] = total_ns.get(name, 0) + dur[k]
        layer = name.split(".", 1)[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + own[k]
        phase = name if name in PHASES else phase_of.get(tracer.parent[i])
        phase_of[i] = phase
        if name == "blackbox.eval_range" and phase and not tracer.raised[i]:
            phase_grids[phase] += 1

    def c(name):
        return calls.get(name, 0)

    def s(name, table=self_ns):
        return table.get(name, 0) / 1e9

    m = {}
    for fn in ("densepoly.interpolate_range", "densepoly.min_shift", "densepoly.taylor_shift",
               "densepoly.evaluate_range", "densepoly.tau", "blackbox.eval_range",
               "blackbox.reduce_mod", "sparse_interp.recover_g", "prime_oracle.generate",
               "prime_oracle.PrimeStream.next_prime", "modular_core.is_prime",
               "modular_core.crt_list", "modular_core.rational_reconstruct"):
        m[f"{fn}.calls"] = (c(fn), "count")
        m[f"{fn}.self_s"] = (s(fn), "s")
    for fn in ("sparse_interp.PrimeImage.from_poly", "sparse_interp.build_g_image",
               "sparse_interp.integer_roots", "sparse_interp.match_and_recover",
               "sparse_interp.full_interpolate", "sparsest_shift.reconstruct_shift"):
        m[f"{fn}.self_s"] = (s(fn), "s")
    # span time with children: the shift search re-interpolates each candidate
    for fn in ("densepoly.min_shift", "densepoly.taylor_shift"):
        m[f"{fn}.s"] = (s(fn, total_ns), "s")

    points = counts["points"]
    m["densepoly.interpolate_range.points"] = (points, "count")
    m["densepoly.interpolate_range.max_points"] = (counts["max_points"], "count")
    m["densepoly.interpolate_range.ns_per_point"] = (
        self_ns.get("densepoly.interpolate_range", 0) / points if points else 0.0, "ns")
    m["densepoly.min_shift.hit_ratio"] = (
        counts["min_shift_hits"] / c("densepoly.min_shift") if c("densepoly.min_shift") else 0.0,
        "ratio")
    box_s = s("blackbox.eval_range") + s("blackbox.eval")
    m["blackbox.queries_per_s"] = (counts["queries"] / box_s if box_s else 0.0, "1/s")

    interp_primes = phase_grids["sparse_interp.sparse_interpolate"]
    m["sparse_interp.sparse_interpolate.s"] = (s("sparse_interp.sparse_interpolate", total_ns), "s")
    m["sparse_interp.primes_reduced"] = (interp_primes, "count")
    m["sparse_interp.images_used"] = (counts["images_used"], "count")
    m["sparse_interp.image_yield"] = (
        counts["images_used"] / interp_primes if interp_primes else 0.0, "ratio")

    shift_primes = phase_grids["sparsest_shift.sparsest_shift"]
    m["sparsest_shift.sparsest_shift.s"] = (s("sparsest_shift.sparsest_shift", total_ns), "s")
    m["sparsest_shift.primes_reduced"] = (shift_primes, "count")
    m["sparsest_shift.residues"] = (counts["residues"], "count")
    m["sparsest_shift.prime_yield"] = (
        counts["residues"] / shift_primes if shift_primes else 0.0, "ratio")

    m["prime_oracle.max_prime"] = (counts["max_prime"], "count")
    traced_ns = pass_s * 1e9
    for layer in tracer.layers:
        m[f"share.{layer}"] = (layer_ns.get(layer, 0) / traced_ns, "ratio")
    m["trace.spans"] = (hi - lo, "count")
    return m


def make_probes(counts):
    """Counters read from arguments and results at span boundaries."""

    def interpolate(args, kwargs, result):
        p = result.modulus
        counts["points"] += p
        counts["max_points"] = max(counts["max_points"], p)

    def min_shift(args, kwargs, hit):
        counts["min_shift_hits"] += hit is not None and not hit.tie

    def shift(args, kwargs, result):
        counts["residues"] += len(result.residues)

    def match(args, kwargs, result):
        counts["images_used"] += len(args[1])

    def next_prime(args, kwargs, p):
        counts["max_prime"] = max(counts["max_prime"], p)

    def box_eval_range(args, kwargs, values):
        counts["queries"] += len(values)

    def box_eval(args, kwargs, value):
        counts["queries"] += 1

    return {
        "densepoly.interpolate_range": interpolate,
        "densepoly.min_shift": min_shift,
        "sparsest_shift.sparsest_shift": shift,
        "sparse_interp.match_and_recover": match,
        "prime_oracle.PrimeStream.next_prime": next_prime,
        "blackbox.eval_range": box_eval_range,
        "blackbox.eval": box_eval,
    }


def fresh_counts():
    return dict.fromkeys(("points", "max_points", "min_shift_hits", "residues", "images_used",
                          "max_prime", "queries"), 0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lacuna" / "__init__.py").is_file():
        print(f"bench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    single_blas_thread()
    reference = Reference()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import tracer as tracing
    import workloads

    setup = Setup(workloads, args.workload, args.seed)
    lc, instances = setup.lc, setup.instances
    boxes = [inst.box for inst in instances]
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
          f"spec sha256 {setup.digest()}", flush=True)

    plain, traced = [], []  # per pass: (instance seconds, instance counts, answer texts)
    layer_runs = []
    tracer = tracing.Tracer()
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    deadline = start + args.seconds
    while not plain or (args.trace and not traced) or time.perf_counter() < deadline:
        run_traced = bool(args.trace) and len(traced) < len(plain)
        if run_traced:
            before = tracer.bindings(boxes)
            counts = fresh_counts()
            tracer.probes = make_probes(counts)
            lo = len(tracer.start)
            tracer.install(boxes)
            try:
                times, records = solve_pass(lc, instances, tracer)
            finally:
                tracer.restore()
            after = tracer.bindings(boxes)
            correct &= before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
            layer_runs.append(layer_metrics(tracer, lo, len(tracer.start), sum(times), counts))
        else:
            times, records = solve_pass(lc, instances, reference=reference)
        texts, bad = outcome(workloads, instances, records)
        attempted += len(instances)
        failed += bad
        (traced if run_traced else plain).append((times, [r[1:] for r in records], texts))
        # set-up repetitions spread over the run, so they see the machine as the passes do
        if time.perf_counter() >= start + len(setup.times) * args.seconds / SETUP_REPS:
            setup.repeat()
    while len(setup.times) < SETUP_REPS:
        setup.repeat()

    # every pass, traced or not, must give the same answers and counts
    first = plain[0]
    correct &= all(run[1:] == first[1:] for run in plain + traced)
    correct &= failed == 0 and setup.ok and len(setup.specs) == 1
    queries = sum(q for q, _ in first[1])
    grids = sum(g for _, g in first[1])
    solve_wall_s = set_time(plain)
    setup_wall_s = statistics.median(setup.times)

    if args.trace:
        metrics = {}
        for name in layer_runs[0]:
            values = [run[name][0] for run in layer_runs]
            unit = layer_runs[0][name][1]
            if unit == "count":  # exact counts repeat in every pass
                correct &= len(set(values)) == 1
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        correct &= metrics["sparsest_shift.primes_reduced"][0] + \
            metrics["sparse_interp.primes_reduced"][0] == grids
        metrics["trace.overhead_ratio"] = (set_time(traced) / solve_wall_s, "ratio")
        metrics["env.blas_threads"] = (blas_threads(), "count")
        metrics["env.reference_s"] = (statistics.median(reference.times), "s")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "instances": [inst.name for inst in instances], **tracer.dump()}, fh)
    else:
        metrics = {
            "solve_s": (solve_wall_s * reference.scale(), "s"),
            "box_queries": (queries, "count"),
            "primes_reduced": (grids, "count"),
            "success_rate": (1 - failed / attempted, "ratio"),
            "setup_s": (setup_wall_s * reference.scale(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    pass_times = " ".join(f"{sum(run[0]):.3f}" for run in plain)
    print(f"passes: {len(plain)} untraced ({pass_times} s), {len(traced)} traced; "
          f"failed {failed} of {attempted}")
    print(f"wall: solve {solve_wall_s:.6g} s, setup {setup_wall_s:.6g} s; reference task "
          f"{statistics.median(reference.times):.6g} s over {len(reference.times)} timings")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
