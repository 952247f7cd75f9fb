#!/usr/bin/env bash
# Benchmark trajectory harness: builds micro_core with optimization and
# writes BENCH_core.json at the repo root — {bench_name: {items_per_sec,
# ns_per_op}} — the numbers successive PRs are measured against.
#
# Also times an 8-run tfcsim sweep serially vs. --jobs $(nproc) and merges
# the wall-clocks (and speedup) into BENCH_core.json as Sweep* entries, so
# the parallel-sweep scaling is part of the recorded trajectory.
#
# Usage: bench/run_bench.sh [--quick] [benchmark_filter_regex]
#   --quick   single repetition (default: 3 repetitions, randomly
#             interleaved, minimum reported — see docs/perf.md on why
#             mean-of-sequential-families is the wrong estimator here)
set -euo pipefail

cd "$(dirname "$0")/.."

REPS=3
FILTER='.'
for arg in "$@"; do
  case "$arg" in
    --quick) REPS=1 ;;
    *) FILTER="$arg" ;;
  esac
done

if command -v cmake >/dev/null && cmake --list-presets >/dev/null 2>&1; then
  cmake --preset release >/dev/null
else
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
fi
cmake --build build -j --target micro_core >/dev/null

RAW=$(mktemp /tmp/micro_core_bench.XXXXXX.json)
trap 'rm -f "$RAW"' EXIT

ARGS=(--benchmark_format=json "--benchmark_out=$RAW" "--benchmark_filter=$FILTER")
if [ "$REPS" -gt 1 ]; then
  # Random interleaving runs the repetitions of all families shuffled
  # together instead of family-after-family, so slow machine drift (this
  # container shows ±15% over a multi-minute run) hits every benchmark
  # equally rather than penalizing whichever family ran last. to_json.py
  # then keeps the minimum repetition — the right estimator when noise is
  # one-sided — which is what the ratio gates below compare.
  ARGS+=("--benchmark_repetitions=$REPS" --benchmark_enable_random_interleaving=true)
fi
./build/bench/micro_core "${ARGS[@]}"

if ! [ -s "$RAW" ]; then
  echo "error: no benchmarks matched filter '$FILTER'" >&2
  exit 1
fi
if [ "$FILTER" != '.' ]; then
  echo "note: filter active — BENCH_core.json will contain only matching benchmarks" >&2
fi

python3 bench/to_json.py "$RAW" BENCH_core.json
echo
echo "wrote $(pwd)/BENCH_core.json:"
# The ratio gates print every reading and exit 1 if any failed; the sweep
# rows below are written either way, and the script then exits 1.
gates=0
python3 - <<'EOF' || gates=$?
import json, sys
data = json.load(open("BENCH_core.json"))
failed = []
for name, e in sorted(data.items()):
    ips = e.get("items_per_sec")
    ips_s = f"{ips:12.3e} items/s" if ips is not None else " " * 20
    print(f"  {name:45s} {ips_s}  {e['ns_per_op']:12.1f} ns/op")

# Each gate divides a twin's wall time per run (ns_per_op) by the plain
# incast's, BM_IncastTestbedEventsPerSec: the twins simulate the same
# network, so time per run is the cost their comments describe.
def ns(name):
    e = data.get(name)
    return e["ns_per_op"] if e else None

plain = ns("BM_IncastTestbedEventsPerSec")

# Telemetry recording overhead: the incast macro-bench with a 100us
# record-everything recorder attached vs. telemetry merely compiled in.
on = ns("BM_IncastTestbedTelemetryOn")
if plain and on:
    ratio = on / plain
    print(f"\n  telemetry recorder overhead: {ratio:.2f}x slower with a"
          f" 100us full-registry recorder ({plain / 1e6:.2f} -> {on / 1e6:.2f} ms/run)")
    # Gate: the compiled-sample-plan recorder holds recording overhead to
    # <=1.5x of the telemetry-off baseline (it was ~10x with per-tick
    # string-map lookups; measured ~1.3x after the compiled-plan rework —
    # docs/perf.md). A breach means someone put strings back on the tick
    # path.
    if ratio > 1.5:
        failed.append("telemetry-on recording is >1.5x slower than the "
                      "telemetry-off baseline")

# Guard: an armed flight-recorder ring must stay within 1.15x of the plain
# path. The armed append is a branch, a 40-byte struct fill, and a masked
# store per event — anything past 1.15x means allocation, lookups, or I/O
# crept onto the Record/EmitTrace path (the lint.py recorder-hot rule bans
# the constructs; this gate catches what the regexes miss). Trace-off needs
# no separate twin: disarmed, the gate is the same single branch the plain
# bench already pays.
trace = ns("BM_IncastTestbedTraceOn")
if plain and trace:
    ratio = trace / plain
    print(f"  armed flight-ring overhead: {ratio:.2f}x"
          f" ({plain / 1e6:.2f} -> {trace / 1e6:.2f} ms/run)")
    if ratio > 1.15:
        failed.append("armed flight recorder is >15% slower than the plain "
                      "path")

# Guard: an attached-but-idle fault injector must stay close to the plain
# data path (docs/robustness.md). The idle twin runs the plain run's events,
# so the ratio is the OnWire hook's own cost per frame: two vector indexings
# to the port's state plus the profile checks. The 1.25x gate leaves room
# for run-to-run jitter while still catching a real hook regression. The
# *unattached* cost (one null check per frame) is inside the plain bench
# itself; nothing here compares it with an earlier run.
fault = ns("BM_IncastTestbedFaultIdle")
if plain and fault:
    ratio = fault / plain
    print(f"  idle fault-injector overhead: {ratio:.2f}x"
          f" ({plain / 1e6:.2f} -> {fault / 1e6:.2f} ms/run)")
    if ratio > 1.25:
        failed.append("idle fault layer is >25% slower than the plain path")

for reason in failed:
    print(f"error: {reason}", file=sys.stderr)
sys.exit(1 if failed else 0)
EOF

# Sweep scaling: wall-clock of an 8-repetition incast sweep on the Fig. 4
# testbed, serial (--jobs=1) vs. all hardware threads. The parallel run is
# bit-identical to the serial one (enforced by tests/sweep_test.cc); this
# records how much wall-clock the parallelism buys on this host. On a
# single-core host the speedup is ~1.0x by construction — the ISSUE's >=3x
# target is only observable with >=8 hardware threads.
echo
echo "sweep scaling (8-run incast sweep, serial vs --jobs $(nproc)):"
cmake --build build -j --target tfcsim >/dev/null
python3 - "$(nproc)" <<'EOF'
import json, subprocess, sys, time

jobs = int(sys.argv[1])
base = ["./build/examples/tfcsim", "--workload=incast", "--protocol=all",
        "--topology=testbed", "--senders=8", "--block_kb=256", "--rounds=20",
        "--seed=1", "--sweep=8"]

def run(j):
    t0 = time.monotonic()
    subprocess.run(base + [f"--jobs={j}"], check=True,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - t0

serial = run(1)
par = run(jobs)
data = json.load(open("BENCH_core.json"))
data["SweepIncast8Serial"] = {"wall_seconds": round(serial, 3)}
data[f"SweepIncast8Jobs{jobs}"] = {
    "wall_seconds": round(par, 3),
    "jobs": jobs,
    "speedup_vs_serial": round(serial / par, 2),
}
json.dump(data, open("BENCH_core.json", "w"), indent=2, sort_keys=True)
open("BENCH_core.json", "a").write("\n")
print(f"  serial: {serial:.2f}s   --jobs={jobs}: {par:.2f}s   "
      f"speedup: {serial / par:.2f}x")
EOF

if [ "$gates" -ne 0 ]; then
  exit 1
fi
