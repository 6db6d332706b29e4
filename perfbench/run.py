"""linearwebs benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload survey-generic --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the workload's
operation runs in a closed loop (one call after another, one client) with
no tracing, until the calls have taken ``--seconds`` in total, and the
end-to-end metrics are printed; times are normalized to a reference machine
speed (speed.py).  With ``--trace 1`` a fixed, seed-determined set of
operations runs traced, untraced and Fraction-counting, three times each,
and the per-layer metrics are printed, each per web processed.  Every output is checked; the
last stdout line is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
TRACE_ROUNDS = 3
MAX_FAILURES = 20


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors[:2])


def run_checked(wl, state, i, inp, tally, deep, expect_s):
    """One timed operation bracketed by reference samples, then its checks.

    Each reference sample lasts about a twentieth of ``expect_s``, the
    previous operation's time.  Returns (seconds, reference ms, output);
    the output is None on error.
    """
    before = speed.reference_ms(expect_s / 2)
    try:
        start = time.perf_counter_ns()
        out = wl.op(state, inp)
        elapsed = (time.perf_counter_ns() - start) / 1e9
    except Exception as exc:  # a failing call is a counted failure, not a crash
        tally.record([f"operation {i} raised {type(exc).__name__}: {exc}"])
        return 0.0, 0.0, None
    ref_ms = (before + speed.reference_ms(elapsed / 2)) / 2
    try:
        errors = wl.check(state, inp, out, deep)
        if i == 0:
            errors = errors + wl.gate(state, inp, out)
    except Exception as exc:
        errors = [f"check of operation {i} raised {type(exc).__name__}: {exc}"]
    tally.record(errors)
    return elapsed, ref_ms, out


def measure_setup(workload: str, seed: int) -> tuple:
    """Median (raw, normalized) set-up seconds over fresh interpreters.

    Each probe times its own ``import linearwebs`` and workload set-up
    (probe.py), so interpreter start-up and the benchmark's imports are
    left out.  The reference samples run here, before and after each
    probe: a fresh interpreter runs them slower until its bytecode warms up.
    """
    raw, norm = [], []
    wall = 0.0
    for _ in range(SETUP_PROBES):
        before = speed.reference_ms(wall)
        start = time.perf_counter()
        # No timeout: with one, subprocess polls in steps of up to 50 ms.
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            check=True, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        ref_ms = (before + speed.reference_ms(wall)) / 2
        norm.append(speed.normalized(raw[-1], ref_ms))
    return statistics.median(raw), statistics.median(norm)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def tail_percentile(samples) -> tuple:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, or None."""
    for q, label in ((1000, "p99.9"), (100, "p99"), (10, "p90")):
        if len(samples) >= 10 * q:
            cut = statistics.quantiles(samples, n=q, method="inclusive")[-1]
            return label, cut
    return None


def end_to_end(wl, state, seconds, tally):
    """Closed loop until the operations have taken ``seconds`` of wall time.

    Returns (metrics, normalized durations, raw durations).
    """
    raw, norm = [], []
    deadline = time.perf_counter() + 2 * seconds + 60
    i = 0
    while sum(raw) < seconds and time.perf_counter() < deadline:
        inp = wl.prepare(state, i)
        elapsed, ref_ms, out = run_checked(wl, state, i, inp, tally,
                                           i < wl.deep_checks,
                                           raw[-1] if raw else 0.0)
        if out is not None:
            raw.append(elapsed)
            norm.append(speed.normalized(elapsed, ref_ms))
        elif tally.failed >= MAX_FAILURES:
            break
        i += 1
    rss = peak_rss_mb()
    if not raw:
        return {}, norm, raw
    metrics = {
        "latency_ms": (statistics.median(norm) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, norm, raw


def shares(wl, state, inputs) -> dict:
    """Share of webs with a valid gauge; share of audited blocks degenerate."""
    from workloads import lw
    webs = [lw.build_web(A) for inp in inputs for A in wl.matrices(state, inp)]
    valid = sum(lw.adapted_coframe(web).is_valid for web in webs)
    degenerate = examined = 0
    for web in webs:
        audit = lw.general_position_audit(web)
        degenerate += len(audit.strict_degenerate) + len(audit.pairwise_degenerate)
        examined += 2 * (comb(2 * web.n, web.n) + comb(2 * web.n, 2))
    return {
        "coframe.gauge_valid_share": (valid / len(webs), "ratio"),
        "webmodel.degenerate_block_share": (degenerate / examined, "ratio"),
    }


def per_layer(wl, state, tally):
    from tracing import (FRACTION_NEW, LAYERS, Tracer, count_fractions,
                         layer_totals)
    inputs = [wl.prepare(state, i) for i in range(wl.trace_ops)]
    webs = wl.trace_ops * wl.webs_per_op
    outputs = []
    last_s = 0.0

    def work():
        outs = []
        for inp in inputs:
            try:
                outs.append(wl.op(state, inp))
            except Exception as exc:  # checked below like any other output
                outs.append(exc)
        return outs

    def timed(fn):
        """Run fn() between reference samples, keep its output, and return
        (wall seconds, factor that normalizes them to the reference speed)."""
        nonlocal last_s
        before = speed.reference_ms(last_s / 2)
        start = time.perf_counter_ns()
        outputs.append(fn())
        last_s = (time.perf_counter_ns() - start) / 1e9
        ref_ms = (before + speed.reference_ms(last_s / 2)) / 2
        return last_s, speed.normalized(1.0, ref_ms)

    # Traced, untraced and Fraction-counting passes alternate, TRACE_ROUNDS
    # times each, on the same inputs: the traced passes must count the same
    # calls and the counting passes the same Fractions.  Times are normalized
    # like the end-to-end ones, and each is the median over the rounds.
    traced_ms, plain_ms, self_ns, calls, fraction_counts = [], [], [], [], []
    for _ in range(TRACE_ROUNDS):
        with Tracer() as tracer:
            seconds, factor = timed(work)
        traced_ms.append(seconds * factor * 1e3)
        totals = layer_totals(tracer.spans)
        calls.append({k: c for k, (c, _) in totals.items()})
        self_ns.append({k: ns * factor for k, (_, ns) in totals.items()})
        seconds, factor = timed(work)
        plain_ms.append(seconds * factor * 1e3)
        out, count = count_fractions(work)
        outputs.append(out)
        fraction_counts.append(count)

    for i, inp in enumerate(inputs):
        out = outputs[0][i]
        try:
            if isinstance(out, Exception):
                raise out
            errors = wl.check(state, inp, out, i < wl.deep_checks)
        except Exception as exc:
            errors = [f"operation {i} raised {type(exc).__name__}: {exc}"]
        if len({_canonical(out[i]) for out in outputs}) != 1:
            errors.append(f"operation {i} output differs between traced and "
                          "untraced passes")
        tally.record(errors)
    tally.record([] if all(c == calls[0] for c in calls)
                 else ["call counts differ between the traced passes"])
    tally.record([] if len(set(fraction_counts)) == 1
                 else ["Fraction counts differ between the counting passes"])

    traced = statistics.median(traced_ms)
    plain = statistics.median(plain_ms)
    metrics = {}
    for layer in LAYERS:
        own_ns = statistics.median(ns.get(layer, 0) for ns in self_ns)
        metrics[f"{layer}.calls"] = (calls[0].get(layer, 0) / webs, "count/web")
        metrics[f"{layer}.self_ms"] = (own_ns / 1e6 / webs, "ms/web")
    metrics[f"{FRACTION_NEW}.calls"] = (fraction_counts[0] / webs, "count/web")
    try:
        metrics.update(shares(wl, state, inputs))
    except Exception as exc:
        tally.record([f"workload shares raised {type(exc).__name__}: {exc}"])
    metrics["trace.untraced_ms"] = (plain / webs, "ms/web")
    metrics["trace.traced_ms"] = (traced / webs, "ms/web")
    metrics["trace.overhead_ms"] = ((traced - plain) / webs, "ms/web")
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return metrics, webs


def _canonical(out):
    if isinstance(out, Exception):
        return repr(out)
    to_dict = getattr(out, "to_dict", None)
    return json.dumps(to_dict(), sort_keys=True) if to_dict else out


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in ("src/linearwebs/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            fail_setup(f"{needed} not found; run from a linearwebs checkout")
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail_setup(f"unknown workload {args.workload!r}; choose from "
                   f"{', '.join(workloads.WORKLOADS)}")
    setup = None if args.trace else measure_setup(wl.name, args.seed)
    state = wl.setup(args.seed)
    tally = Tally()
    try:
        try:
            wl.warmup(state)
        except Exception as exc:
            tally.record([f"warm-up raised {type(exc).__name__}: {exc}"])
        if args.trace:
            metrics, webs = per_layer(wl, state, tally)
            print(f"{wl.name}: traced {webs} webs, seed {args.seed}; "
                  "per web, wall clock")
        else:
            metrics, norm, raw = end_to_end(wl, state, args.seconds, tally)
            metrics["setup_s"] = (setup[1], "s")
            print(f"{wl.name}: {len(raw)} operations of {wl.webs_per_op} "
                  f"web(s), seed {args.seed}")
            if raw:
                line = (f"  wall clock: latency median "
                        f"{statistics.median(raw) * 1e3:.4f} ms")
                for label, times in (("", raw), (" normalized", norm)):
                    tail = tail_percentile(times)
                    if tail:
                        line += f", {tail[0]}{label} {tail[1] * 1e3:.4f} ms"
                print(line + f", {wl.webs_per_op * len(raw) / sum(raw):.4f} "
                      f"webs/s, setup {setup[0]:.4f} s")
            print("  normalized to the reference speed (see perfbench/speed.py):")
    finally:
        wl.teardown(state)

    ratio = tally.failed / max(tally.attempted, 1)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<40} {value:14.4f} {unit}")
    print(f"  {'failure_ratio':<40} {ratio:14.4f} ({tally.failed}/{tally.attempted})")
    for message in tally.messages[:10]:
        print(f"  FAILED: {message}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
