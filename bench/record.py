"""Run the benchmark twice over several seeds and record the results.

    python3 bench/record.py --seeds 1-10 --trace-seeds 1 --out bench/baseline.json

Run from the repository root.  Reads ``BENCHMARK.json`` for the command,
the run length, the workloads and the bounds, and runs one process at a
time.  It makes two sets of runs, each set every seed of every workload in
turn, then the traced runs.  For every end-to-end metric and each set it
records the median over seeds and the spread (the distance between the
first and third quartile as a share of the median), and the second set's
change against the first as a share of the first median, counted positive
when the metric got worse.  It flags a spread above a third of the
metric's bound and a change worse than the bound, and then exits 1.
Per-layer metrics are the median over the traced runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
sys.path.insert(0, str(BENCH))
import workloads as instance_sets  # noqa: E402


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload:10s} seed {seed:3d} trace {trace}: {wall:6.1f} s wall, "
          f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}", flush=True)
    return {"seed": seed, "wall_s": round(wall, 2), **result}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1")
    ap.add_argument("--commit", default="", help="label for the measured source tree")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [{w: [run_once(spec, w, seed, 0) for seed in parse_seeds(args.seeds)] for w in names}
            for _ in range(SETS)]
    traced = {w: [run_once(spec, w, seed, 1) for seed in parse_seeds(args.trace_seeds)]
              for w in names}

    report = {
        "commit": args.commit,
        "machine": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.processor()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
        "excluded": instance_sets.EXCLUDED,
    }
    ok = True
    for w in names:
        runs = [r for runs in sets for r in runs[w]] + traced[w]
        entry = {"seeds": parse_seeds(args.seeds),
                 "all_correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}, "per_layer": {}}
        ok &= entry["all_correct"]
        for name, m in metrics.items():
            stats = [summarize([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            first, last = stats[0]["median"], stats[-1]["median"]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (last - first) / first
            flags = [f"set {k + 1} spread above a third of the bound"
                     for k, st in enumerate(stats) if st["spread"] > m["bound"] / 3]
            if worse > m["bound"]:
                flags.append("second median worse than the first by more than the bound")
            ok &= not flags
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": m["bound"], "sets": stats,
                                         "second_vs_first": worse, "flags": flags}
            print(f"{w:10s} {name:16s} medians " + " ".join(f"{st['median']:<12.6g}" for st in stats)
                  + " spreads " + " ".join(f"{st['spread']:.4f}" for st in stats)
                  + f" worse {worse:+.4f}  (bound {m['bound']}) {'; '.join(flags)}")
        entry["per_layer_seeds"] = parse_seeds(args.trace_seeds)
        for name in traced[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in traced[w]]
            entry["per_layer"][name] = {"value": statistics.median(values),
                                        "unit": traced[w][0]["metrics"][name]["unit"]}
        report["workloads"][w] = entry
        report["machine"]["blas_threads"] = entry["per_layer"]["env.blas_threads"]["value"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
