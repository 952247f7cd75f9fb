#!/usr/bin/env python3
"""Benchmark of the TFC simulator, as declared in BENCHMARK.json.

Builds perfbench/driver.cc against src/, runs one workload for a fixed time
and prints one JSON result line as the last line of stdout:

    python3 perfbench/run.py --workload incast400_tfc --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced repetition. Every repetition runs in its own driver process
and its simulated outcome is checked (see check_outcome). --scale tiny
shrinks every workload for the smoke test. --record stores the simulated
outcomes of a seed in reference.json instead of measuring.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; see README.md for the metric catalogue.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("incast400_tfc", "websearch360_dctcp", "incast100_telemetry")

# Repetition k of a run simulates network seed MAX_REPS * seed + k, so the
# median of a web-search run spans several traffic draws instead of one,
# while the same --seed always gives the same inputs. reference.json holds
# the outcomes of the first RECORDED_REPS network seeds of recorded seeds.
MIN_REPS = 3
MAX_REPS = 64
RECORDED_REPS = 4
# Set-up is timed in separate processes, interleaved with the timed
# repetitions so that slow phases of the host hit both alike.
SETUPS_PER_REP = 2
MIN_SETUPS = 15
# End-to-end values are medians over this many groups of consecutive
# repetitions, each group averaged (see median_of_means).
GROUPS = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "hops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_hop": "event/hop",
    "sim.ns_per_event": "ns",
    "sim.heap_peak": "count",
    "net.hops": "count",
    "net.drops": "count",
    "net.ecn_marks": "count",
    "net.max_queue_kb": "KB",
    "net.pool_hits": "count",
    "net.pool_misses": "count",
    "net.pool_high_water": "count",
    "net.serialize_hits": "count",
    "net.serialize_wall_s": "s",
    "topo.build_s": "s",
    "topo.nodes": "count",
    "topo.ports": "count",
    "tfc.install_s": "s",
    "tfc.slots": "count",
    "tfc.delayed_acks": "count",
    "tfc.release_hits": "count",
    "tfc.release_wall_s": "s",
    "tfc.probes": "count",
    "tfc.probe_retries": "count",
    "transport.flows_started": "count",
    "transport.flows_completed": "count",
    "transport.timeouts": "count",
    "transport.rto_hits": "count",
    "transport.rto_wall_s": "s",
    "workload.start_s": "s",
    "workload.live_flows_peak": "count",
    "telemetry.series": "count",
    "telemetry.ticks": "count",
    "telemetry.samples": "count",
    "telemetry.plan_rebuilds": "count",
    "telemetry.export_s": "s",
    "telemetry.tfcb_mb": "MB",
    "run.teardown_s": "s",
    "run.artifact_mb": "MB",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

# Per-layer timings taken as the median of the untraced repetitions' spans.
SPAN_METRICS = {
    "sim.run_s": "run",
    "topo.build_s": "setup.topo",
    "tfc.install_s": "setup.switch_logic",
    "workload.start_s": "setup.workload",
    "telemetry.export_s": "export",
    "run.teardown_s": "teardown",
}

# Per-layer values read from the traced repetition.
TRACED_METRICS = ("sim.heap_peak", "workload.live_flows_peak", "net.serialize_wall_s",
                  "tfc.release_wall_s", "transport.rto_wall_s")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    out = os.path.join(build_dir(), "perfbench-cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def driver_env():
    env = dict(os.environ)
    # The driver chooses profiling itself; the auditor would add work.
    env.pop("TFC_PROFILE", None)
    env.pop("TFC_AUDIT", None)
    # The run exporter asks git for a describe string: keep git inside the
    # checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def drive(binary, workload, net_seed, scale, *flags):
    run_dir = os.path.join(build_dir(), f"run-{os.getpid()}")
    cmd = [binary, f"--workload={workload}", f"--seed={net_seed}", f"--scale={scale}",
           f"--run-dir={run_dir}", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=driver_env(), stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}: {' '.join(cmd)}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["net_seed"] = net_seed
    rep["span_s"] = {s["name"]: s["end_s"] - s["start_s"] for s in rep["spans"]}
    rep["wall_s"] = sum(s["end_s"] - s["start_s"] for s in rep["spans"] if not s["parent"])
    return rep


def net_seed(seed, k):
    return MAX_REPS * seed + k


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_outcome(workload, scale, rep, reference):
    """Returns the list of problems with one repetition's simulated outcome.

    A recorded network seed must reproduce its stored statistics exactly.
    Every seed must pass the invariants: each started block or flow
    completes, and an incast delivers exactly the bytes it requested.
    """
    out = rep["outcome"]
    problems = []
    if out["completed"] != out["attempted"]:
        problems.append(f"{out['completed']:.0f} of {out['attempted']:.0f} blocks/flows completed")
    if out["flows_completed"] != out["flows_started"]:
        problems.append(f"{out['flows_completed']:.0f} of {out['flows_started']:.0f} "
                        "connections closed")
    if "requested_bytes" in out and out["delivered_bytes"] != out["requested_bytes"]:
        problems.append(f"delivered {out['delivered_bytes']:.0f} bytes, "
                        f"requested {out['requested_bytes']:.0f}")
    if "query_flows" in out and out["query_flows"] + out["background_flows"] != out["completed"]:
        problems.append("FCT samples do not match completed flows")
    want = reference.get(scale, {}).get(workload, {}).get(str(rep["net_seed"]))
    if want is not None:
        for key in sorted(set(want) | set(out)):
            if out.get(key) != want.get(key):
                problems.append(f"{key} = {out.get(key)!r}, reference {want.get(key)!r}")
    return problems


def tally(workload, scale, reps, reference):
    """Returns (attempted, failed) over all repetitions; logs every problem."""
    attempted = failed = 0
    for rep in reps:
        out = rep["outcome"]
        attempted += int(out["attempted"])
        problems = check_outcome(workload, scale, rep, reference)
        for p in problems:
            log(f"outcome check failed ({workload}, network seed {rep['net_seed']}): {p}")
        failed += int(out["attempted"]) if problems else int(out["attempted"] - out["completed"])
    return attempted, failed


def median_of_means(values):
    """Median over GROUPS groups of consecutive values of each group's mean.

    Host speed on shared machines alternates between fast and slow phases
    lasting seconds. Repetitions shorter than a phase then fall into two
    modes, and a plain median flips between them from run to run. The mean
    over a group of consecutive repetitions spans several phases. The median
    over groups still ignores one disturbed group.
    """
    k = min(GROUPS, len(values))
    edges = [round(i * len(values) / k) for i in range(k + 1)]
    return statistics.median(statistics.fmean(values[a:b]) for a, b in zip(edges, edges[1:]))


def end_to_end(binary, args, reference):
    reps, setups = [], []

    def setup_rep():
        k = len(setups) % MAX_REPS
        setups.append(drive(binary, args.workload, net_seed(args.seed, k), args.scale,
                            "--setup-only"))

    deadline = time.monotonic() + args.seconds
    while len(reps) < MAX_REPS and (len(reps) < MIN_REPS or time.monotonic() < deadline):
        reps.append(drive(binary, args.workload, net_seed(args.seed, len(reps)), args.scale))
        for _ in range(SETUPS_PER_REP):
            setup_rep()
    while len(setups) < MIN_SETUPS:
        setup_rep()
    attempted, failed = tally(args.workload, args.scale, reps, reference)
    metrics = {
        "wall_s": median_of_means([r["wall_s"] for r in reps]),
        "setup_s": median_of_means([r["span_s"]["setup"] for r in setups]),
        "hops_per_s": median_of_means([r["layer"]["net.hops"] / r["span_s"]["run"]
                                       for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    log(f"{args.workload}: {len(reps)} timed and {len(setups)} set-up repetitions")
    return metrics, END_TO_END, attempted, failed


def per_layer(binary, args, reference):
    seed = net_seed(args.seed, 0)
    untraced = []
    deadline = time.monotonic() + args.seconds
    while len(untraced) < MAX_REPS and (len(untraced) < MIN_REPS or time.monotonic() < deadline):
        untraced.append(drive(binary, args.workload, seed, args.scale))
    traced = drive(binary, args.workload, seed, args.scale, "--traced")
    attempted, failed = tally(args.workload, args.scale, untraced + [traced], reference)
    # Slicing and profiling must not change the simulation.
    base = untraced[0]
    for key in ("sim.events", "net.hops", "net.pool_high_water"):
        if traced["layer"][key] != base["layer"][key]:
            log(f"traced run changed {key}: {traced['layer'][key]} vs {base['layer'][key]}")
            failed += int(traced["outcome"]["attempted"])
    if traced["outcome"] != base["outcome"]:
        log("traced run changed the simulated outcome")
        failed += int(traced["outcome"]["attempted"])

    metrics = {name: float(base["layer"].get(name, 0)) for name in PER_LAYER}
    for name in TRACED_METRICS:
        metrics[name] = float(traced["layer"][name])
    for name, span in SPAN_METRICS.items():
        metrics[name] = statistics.median(r["span_s"].get(span, 0.0) for r in untraced)
    run_s = metrics["sim.run_s"]
    metrics["sim.ns_per_event"] = run_s * 1e9 / metrics["sim.events"]
    traced_run_s = traced["span_s"]["run"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_run_s / run_s - 1.0)
    metrics["trace.unattributed_pct"] = 100.0 * (
        1.0 - traced["layer"]["profile.sites_wall_s"] / traced_run_s)

    log(f"{args.workload}: traced repetition, network seed {seed}")
    for s in traced["spans"]:
        children = sum(traced["span_s"][c["name"]] for c in traced["spans"]
                       if c["parent"] == s["name"])
        dur = traced["span_s"][s["name"]]
        log(f"  span {s['name']:<20} {dur:10.6f} s   self {dur - children:10.6f} s")
    return metrics, PER_LAYER, attempted, failed


def record(binary, args, reference):
    """Stores the outcomes of this seed's network seeds in reference.json."""
    table = reference.setdefault(args.scale, {}).setdefault(args.workload, {})
    for k in range(RECORDED_REPS):
        rep = drive(binary, args.workload, net_seed(args.seed, k), args.scale)
        table.pop(str(rep["net_seed"]), None)
        problems = check_outcome(args.workload, args.scale, rep, reference)
        if problems:
            raise BenchError(f"refusing to record a failing outcome: {problems}")
        table[str(rep["net_seed"])] = rep["outcome"]
        log(f"recorded {args.scale}/{args.workload}/{rep['net_seed']}")
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        binary = build()
        reference = load_reference()
        if args.record:
            record(binary, args, reference)
            return 0
        # Warm-up: the first process after a build pays for loading the binary.
        drive(binary, args.workload, net_seed(args.seed, 0), args.scale, "--setup-only")
        measure = per_layer if args.trace else end_to_end
        metrics, units, attempted, failed = measure(binary, args, reference)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
