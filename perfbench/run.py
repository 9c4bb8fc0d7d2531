#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tamecount pipeline.

Run from the root of a source checkout; no install step is needed, the
package is imported from ``src``:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``golden``, ``groups``, ``probes``.  A run
measures in a single process, serving requests one at a time (a closed
loop with a single client).  It times set-up in separate fresh interpreters, then
repeats passes over the workload's fixed request list while a further
pass still fits in ``--seconds`` (at least one pass), checking every
output after its pass.  Request and pass times are reported in reference
time (unit ``ref``, see refspeed.py), which takes the shared host's
changing speed out; their wall seconds are printed and recorded too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
of the time on untraced passes and half on traced ones, and prints the
per-layer metrics of the traced passes plus the tracing overhead.  Every
run writes its environment, per-request latencies and output digests,
and (traced) its spans to ``perfbench/out/``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

``--smoke`` makes one pass over a short list of cheap requests; the
benchmark's own tests use it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# setup_s is given in seconds at a nominal host speed: each set-up sample is
# scaled by BASELINE_NOMINAL_S over the mean wall time of the two bare
# interpreter starts (with these stdlib imports) timed around it.  Process
# start moves with the shared host's load by +-25% from one few-second block
# to the next, and the reference computation of refspeed.py does not track
# it, but a bare start does: scaled, blocks of 11 samples stayed within
# +-2%.  0.1 s is what the bare start took on an idle 2-vCPU host.
BASELINE_IMPORTS = "import argparse, dataclasses, fractions, json, random, statistics"
BASELINE_NOMINAL_S = 0.1

# Times of requests and passes are given in reference time (unit "ref",
# see refspeed.py): the host's speed moves too much for wall seconds to be
# compared between runs.
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "slowest_request_ref": "ref",
                    "peak_rss_mb": "MB"}
# Printed and recorded, left out of the result: wall seconds, and the median
# request, which on a fixed list falls between two sub-second requests
# whose reference times move by 10-15% from pass to pass.
UNGATED_UNITS = {"request_p50_ref": "ref", "wall_s": "s", "request_p50_s": "s",
                 "slowest_request_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("golden", "groups", "probes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over a short list of cheap requests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import tamecount from this checkout's src, never from an installed copy."""
    if not (SRC / "tamecount" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tamecount'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tamecount
    if SRC.resolve() not in Path(tamecount.__file__).resolve().parents:
        sys.exit(f"error: tamecount imported from {tamecount.__file__}, not {SRC}")
    import workloads
    return tamecount, workloads


def timed_process(cmd, env):
    """Wall time of a child process run to its end."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantise the measurement; block instead and kill on a timer
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        sys.exit(f"error: {cmd[1:3]} exited with code {code}")
    return time.perf_counter() - start


def time_setups(args, samples):
    """Set-up times of fresh interpreters that import tamecount, build the
    workload's inputs and exit, each scaled by the bare interpreter starts
    timed just before and after it: (raw, baseline, scaled) per sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    baseline = [sys.executable, "-c", BASELINE_IMPORTS]
    before = timed_process(baseline, env) if samples else None
    out = []
    for _ in range(samples):
        raw = timed_process(cmd, env)
        after = timed_process(baseline, env)
        base = (before + after) / 2
        out.append((raw, base, raw * BASELINE_NOMINAL_S / base))
        before = after
    return out


def environment(tamecount):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "kernel_backend": getattr(tamecount, "KERNEL_BACKEND", "none")}


def run_pass(workload, tracer, traced):
    """Serve every request once; check the outputs after the clock stops."""
    tracer.spans = []
    spans = {}
    results = {}
    with refspeed.SpeedSampler() as sampler:
        start = time.perf_counter()
        for request in workload.requests:
            tracer.request = request.id
            t0 = time.perf_counter()
            results[request.id] = workload.run(request, tracer)
            spans[request.id] = (t0, time.perf_counter())
        end = time.perf_counter()
    failures = {}
    for request in workload.requests:
        tracer.request = request.id
        failure = workload.check(request, results[request.id], tracer)
        if failure is not None:
            failures[request.id] = failure
    tracer.request = None
    return {"traced": traced, "wall_s": end - start,
            "wall_ref": sampler.ref_time(start, end),
            "latencies": {rid: b - a for rid, (a, b) in spans.items()},
            "latencies_ref": {rid: sampler.ref_time(a, b) for rid, (a, b) in spans.items()},
            "sampler": {**sampler.summary(),
                        "handler_share": sampler.handler_time(start, end) / (end - start)},
            "spans": tracer.spans,
            "texts": {rid: r.text for rid, r in results.items()}, "failures": failures}


def run_passes(workload, tracer, traced, budget, smoke):
    """Passes while another one is expected to end within `budget` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, tracer, traced))
        elapsed = time.perf_counter() - start
        if smoke or elapsed + passes[-1]["wall_s"] > budget:
            return passes


def end_to_end(passes, setup_times):
    out = {"setup_s": statistics.median(scaled for _, _, scaled in setup_times)}
    for suffix in ("ref", "s"):
        key = "latencies_ref" if suffix == "ref" else "latencies"
        out[f"wall_{suffix}"] = statistics.median(p[f"wall_{suffix}"] for p in passes)
        out[f"request_p50_{suffix}"] = statistics.median(
            t for p in passes for t in p[key].values())
        out[f"slowest_request_{suffix}"] = statistics.median(max(p[key].values())
                                                             for p in passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def per_layer(traced_passes, untraced_passes):
    """Median over traced passes of each layer metric, plus overhead."""
    rows = [tracing.layer_metrics(p["spans"]) for p in traced_passes]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    traced_wall = statistics.median(p["wall_ref"] for p in traced_passes)
    untraced_wall = statistics.median(p["wall_ref"] for p in untraced_passes)
    out["hull_lp.lp_share_of_wall"] = statistics.median(
        row["hull_lp.lp_solve_s"] / p["wall_s"] for row, p in zip(rows, traced_passes))
    out["trace.traced_wall_ref"] = traced_wall
    out["trace.untraced_wall_ref"] = untraced_wall
    out["trace.overhead_ref"] = traced_wall - untraced_wall
    return out


def per_layer_unit(name):
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share_of_wall")) or name == "hull_lp.lps_per_membership":
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    tamecount, workloads = import_package()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
        return 0

    setup_times = time_setups(args, 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    env = environment(tamecount)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(workload.requests)} requests "
          f"per pass")
    for request in workload.requests:
        print(f"  request {request.id}")

    if args.trace:
        untraced = run_passes(workload, tracing.NullTracer(), False, args.seconds / 2,
                              args.smoke)
        tracer = tracing.Tracer()
        tracer.install()
        # cli resolves each analysis request itself: route it through the
        # same closure/classes split as the other workloads
        tracer.patch("tamecount.cli", "resolve_entry",
                     lambda spec: workloads.resolve(spec, tracer))
        try:
            traced = run_passes(workload, tracer, True, args.seconds / 2, args.smoke)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        reference = untraced[0]["texts"]
        for p in traced:
            for rid, text in p["texts"].items():
                if text != reference[rid] and rid not in p["failures"]:
                    p["failures"][rid] = workloads.Failure("output bytes differ with tracing on")
        metrics = per_layer(traced, untraced)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        passes = run_passes(workload, tracing.NullTracer(), False, args.seconds, args.smoke)
        metrics = end_to_end(passes, setup_times)
        units = {**END_TO_END_UNITS, **UNGATED_UNITS}

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [(rid, f) for p in passes for rid, f in p["failures"].items()]
    failed = len(failures)
    correct = all(f.known for _, f in failures)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_samples": [{"raw_s": raw, "baseline_s": base, "scaled_s": scaled}
                          for raw, base, scaled in setup_times],
        "requests": [{"id": r.id, "layers": list(r.layers)} for r in workload.requests],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "wall_ref": p["wall_ref"],
                    "latencies": p["latencies"], "latencies_ref": p["latencies_ref"],
                    "sampler": p["sampler"],
                    "digests": {rid: hashlib.sha256(t.encode()).hexdigest()
                                for rid, t in p["texts"].items()},
                    "failures": {rid: f.reason for rid, f in p["failures"].items()},
                    "spans": tracing.jsonable(p["spans"])}
                   for p in passes],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    print(f"passes: {sum(not p['traced'] for p in passes)} untraced, "
          f"{sum(p['traced'] for p in passes)} traced; setup samples: {len(setup_times)}; "
          f"record: {record_path.relative_to(ROOT)}")
    for p in passes:
        print(f"pass {'traced' if p['traced'] else 'untraced'}: "
              f"{p['sampler']['samples']} reference samples, median "
              f"{p['sampler']['reference_median_s'] * 1e3:.3f} ms, "
              f"{p['sampler']['handler_share']:.1%} of the pass")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}"
              + (" (not gated)" if name in UNGATED_UNITS else ""))
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for rid, f in failures:
        print(f"{'known failure' if f.known else 'FAILED'}: {rid}: {f.reason}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()
                                  if name not in UNGATED_UNITS}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
