"""Repeat benchmark runs over seeds and summarize them into a BENCH file.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/BENCH_baseline.json
    python3 perfbench/sweep.py --seeds 5 --workloads analyze-n6 --no-trace

For every workload, runs ``run.py`` once per seed with tracing off and
records each end-to-end metric's median, quartiles and spread (quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives them)
against its bound from BENCHMARK.json.  A spread under a third of the bound
counts as steady; ``setup_s`` is exempt from that rule.  Unless
``--no-trace``, it also makes two traced runs with the same seed and checks
that every ``.calls`` count repeats exactly.  The output records the
machine and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(name, values, bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread,
           "values": values}
    if bound is not None:
        out["bound"] = bound
        # setup_s is held to its bound by median only, not by spread.
        if name != "setup_s":
            out["steady"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": args.seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0)
                for seed in report["seeds"]]
        entry = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "end_to_end": {
                name: summarize(name, [r["metrics"][name]["value"] for r in runs],
                                bounds.get(name))
                for name in runs[0]["metrics"]},
        }
        if not args.no_trace:
            seed = report["seeds"][0]
            first, second = (run_once(workload, seed, args.seconds, 1)
                             for _ in range(2))
            calls = {k: v["value"] for k, v in first["metrics"].items()
                     if k.endswith(".calls")}
            entry["traced"] = {
                "seed": seed,
                "all_correct": first["correct"] and second["correct"],
                "calls_repeat_exactly": calls == {
                    k: v["value"] for k, v in second["metrics"].items()
                    if k.endswith(".calls")},
                "max_wall_s": max(first["wall_s"], second["wall_s"]),
                "metrics": {k: v["value"] for k, v in first["metrics"].items()},
            }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s.get("steady", True) else "  NOT STEADY"
            print(f"{workload:<22} {name:<12} median {s['median']:12.4f} "
                  f"spread {s['spread']:.4f} bound {s.get('bound')}{flag}")
        print(f"{workload:<22} wall max {entry['max_wall_s']:.1f} s, "
              f"failed {entry['failed']}/{entry['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
