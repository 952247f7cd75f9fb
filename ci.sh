#!/usr/bin/env bash
# Local CI entry point — the same matrix .github/workflows/ci.yml runs.
#
#   ./ci.sh            full matrix: release, figures, asan-ubsan, hardened,
#                      tsan, lint, astlint, tidy, telemetry, trace, chaos,
#                      sweep, perfbench, outcomes
#   ./ci.sh release    one leg by name
#
# Every leg must pass for the gate to be green. The sanitizer and hardened
# presets build with -Werror and run the full test suite with the runtime
# invariant auditor enabled (TFC_AUDIT=ON); see docs/correctness.md.
set -euo pipefail
cd "$(dirname "$0")"

run_preset() {
  local preset="$1"
  echo "=== [${preset}] configure + build + test ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}"
}

leg_release()    { run_preset release; }
# Claims gate (docs/correctness.md "Golden outputs"): every figure binary's
# full-length stdout against tests/golden/full/, and the figure-shape
# checks over it. ~70 s of runs serially; fig15 bounds the parallel run.
leg_figures() {
  echo "=== [figures] full-length bench goldens + figure shapes ==="
  cmake --preset figures
  cmake --build --preset figures -j "$(nproc)"
  ctest --preset figures -j "$(nproc)"
}
leg_asan_ubsan() { run_preset asan-ubsan; }
leg_hardened()   { run_preset hardened; }
# Repo conventions: lint.py is the only owner of its rules (astlint carries
# only the det-* rules), so there is one call and nothing to arbitrate.
leg_lint() {
  echo "=== [lint] tools/lint.py ==="
  python3 tools/lint.py
}

# AST determinism analyzer (tools/astlint.py): suppression-policy selftest
# always runs; the libclang battery (fixture goldens + zero unsuppressed
# findings over src/) skips with a warning where libclang is absent unless
# TFC_ASTLINT_REQUIRE=1 (set in the CI job, which installs a pinned
# libclang) turns a skip into a failure.
leg_astlint() {
  echo "=== [astlint] tools/astlint.py ==="
  python3 tools/astlint.py --selftest
  if ! python3 tools/astlint.py --probe; then
    if [[ "${TFC_ASTLINT_REQUIRE:-0}" == "1" ]]; then
      echo "astlint: engine required (TFC_ASTLINT_REQUIRE=1) but unavailable" >&2
      exit 1
    fi
    echo "astlint: libclang unavailable — skipping AST battery" >&2
    return 0
  fi
  for fixture in tests/astlint/fixtures/*.cc; do
    python3 tools/astlint.py --fixture "${fixture}" \
        --check-golden "${fixture%.cc}.expected"
  done
  if [[ ! -f build/compile_commands.json ]]; then
    cmake --preset release
  fi
  python3 tools/astlint.py --build-dir build
}

# ThreadSanitizer leg: src/ starts no threads, but embedders may drive
# several Networks from several threads. The tsan preset's ctest filter
# covers that surface — the multi-instance (two Networks from two threads)
# regression tests, chaos replay, and determinism. A hidden process-wide
# cache shared between instances fails this leg.
leg_tsan() {
  run_preset tsan
}
leg_tidy()       { echo "=== [tidy] tools/tidy.sh ==="; bash tools/tidy.sh build; }

# Telemetry-enabled incast smoke on the paper's Fig. 4 testbed topology:
# runs tfcsim with --telemetry-dir and validates the emitted run directory
# against the documented schema (docs/observability.md).
leg_telemetry() {
  echo "=== [telemetry] tfcsim incast smoke + schema check ==="
  cmake --preset release
  cmake --build build -j "$(nproc)" --target tfcsim
  local dir=build/telemetry-smoke
  rm -rf "${dir}"
  ./build/examples/tfcsim --workload=incast --protocol=tfc --topology=testbed \
      --senders=8 --block_kb=64 --rounds=5 \
      --telemetry-dir="${dir}" --telemetry-interval=500
  python3 tools/telemetry_schema.py "${dir}"
  # The run must actually contain the series the figures are built from;
  # the names come from the schema checker's own metrics.tfcb parser.
  python3 - "${dir}" <<'EOF'
import json, sys
from pathlib import Path
sys.path.insert(0, "tools")
import telemetry_schema
ck = telemetry_schema.Checker()
names, _ = telemetry_schema.check_metrics_tfcb(Path(sys.argv[1]) / "metrics.tfcb", ck)
assert not ck.errors, ck.errors
want_prefixes = ("port.", "tfc.", "flow.")
for p in want_prefixes:
    assert any(n.startswith(p) for n in names), f"no {p}* series recorded"
summary = json.load(open(sys.argv[1] + "/summary.json"))
assert "counters" not in summary and "histograms" not in summary, sorted(summary)
gauges = summary["gauges"]
assert gauges.get("incast.H1.rounds_completed") == 5, "rounds_completed is not 5"
assert gauges.get("incast.H1.block_fct_count") == 8 * 5, "not one FCT per block"
assert gauges.get("incast.H1.block_fct_p99_us", 0) > 0, "no block FCT p99"
flow_max = max(v for k, v in gauges.items()
               if k.startswith("incast.flow") and k.endswith(".fct_max_us"))
assert gauges["incast.H1.block_fct_max_us"] == flow_max, "merged max != worst flow's"
print(f"telemetry smoke: {len(names)} series OK")
EOF
}

# Flight-recorder leg (docs/observability.md "Flight recorder"):
# (1) arming the ring must not perturb the simulation — the telemetry spill
#     and summary of an armed run are byte-identical to a trace-off run;
# (2) a forced audit trip post-mortem-dumps the ring to flight.tfct, and two
#     identical runs produce byte-identical dumps, also from a ring that
#     wrapped;
# (3) --export-trace round-trips the dump into Perfetto JSON + a per-flow
#     timeline, and every artifact validates against the documented schema.
# CI uploads build/trace-smoke as the workflow's post-mortem artifact.
leg_trace() {
  echo "=== [trace] flight recorder: passivity + post-mortem + export ==="
  cmake --preset release
  cmake --build build -j "$(nproc)" --target tfcsim
  local dir=build/trace-smoke
  rm -rf "${dir}"
  mkdir -p "${dir}"
  local common=(--workload=incast --protocol=tfc --topology=testbed
                --senders=8 --block_kb=64 --rounds=5 --seed=5)

  echo "--- [trace] armed ring leaves outputs byte-identical ---"
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/off"
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/armed" \
      --trace-ring=65536
  cmp "${dir}/off/metrics.tfcb" "${dir}/armed/metrics.tfcb"
  cmp "${dir}/off/summary.json" "${dir}/armed/summary.json"
  echo "trace: off vs armed byte-identical"

  echo "--- [trace] forced audit trip dumps deterministically ---"
  local rc=0
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/trip1" \
      --trace-ring=16384 --force-audit-trip=3000 >/dev/null 2>&1 || rc=$?
  [[ "${rc}" -ne 0 ]] || { echo "trace: forced trip did not abort" >&2; return 1; }
  [[ -s "${dir}/trip1/flight.tfct" ]] || {
    echo "trace: no post-mortem dump written" >&2; return 1; }
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/trip2" \
      --trace-ring=16384 --force-audit-trip=3000 >/dev/null 2>&1 || true
  cmp "${dir}/trip1/flight.tfct" "${dir}/trip2/flight.tfct"
  # The trip comes after 5,264 events: a 1,024-event ring has wrapped, so
  # the funnel dumps its window in two pieces.
  rc=0
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/wrap1" \
      --trace-ring=1024 --force-audit-trip=3000 >/dev/null 2>&1 || rc=$?
  [[ "${rc}" -ne 0 ]] || { echo "trace: forced trip did not abort" >&2; return 1; }
  ./build/examples/tfcsim "${common[@]}" --telemetry-dir="${dir}/wrap2" \
      --trace-ring=1024 --force-audit-trip=3000 >/dev/null 2>&1 || true
  cmp "${dir}/wrap1/flight.tfct" "${dir}/wrap2/flight.tfct"
  python3 - "${dir}/wrap1/flight.tfct" <<'EOF'
import struct, sys
recorded, kept = struct.unpack_from("<QQ", open(sys.argv[1], "rb").read(32), 16)
assert kept == 1024 < recorded, f"the ring kept {kept} of {recorded} events: no wrap"
EOF
  echo "trace: post-mortem dumps byte-identical across runs, wrapped or not"

  echo "--- [trace] export + schema validation ---"
  ./build/examples/tfcsim --export-trace="${dir}/armed"
  ./build/examples/tfcsim --export-trace="${dir}/trip1"
  ./build/examples/tfcsim --export-trace="${dir}/wrap1"
  python3 tools/telemetry_schema.py "${dir}/armed"
  python3 tools/telemetry_schema.py --flight "${dir}/trip1"
  python3 tools/telemetry_schema.py --flight "${dir}/wrap1"
  grep -q '"ph":"X"' "${dir}/armed/trace.perfetto.json"
  grep -q '=== flow ' "${dir}/armed/flows.txt"
  echo "trace: export round-trip validates"
}

# Chaos smoke under ASan: a handful of seeded fault schedules on the Fig. 4
# testbed via tfcsim --fault-spec, plus the chaos_test harness gtest filter
# that replays one full schedule bit-identically (docs/robustness.md). The
# full 20-seed sweep runs in the asan-ubsan/hardened ctest legs; this leg is
# the fast end-to-end check that the CLI path and injector survive sanitizers.
leg_chaos() {
  echo "=== [chaos] seeded fault-injection smoke (ASan) ==="
  cmake --preset asan-ubsan
  cmake --build build-asan -j "$(nproc)" --target tfcsim chaos_test
  for seed in 11 12 13; do
    echo "--- chaos seed ${seed} ---"
    ./build-asan/examples/tfcsim --workload=incast --protocol=tfc \
        --topology=testbed --senders=6 --block_kb=64 --rounds=3 \
        --seed="${seed}" \
        --fault-spec="drop=0.005,ge=0.01/0.3/0.5,flap=5ms/300us,wipe=10ms,start=1ms,seed=${seed}"
  done
  ./build-asan/tests/chaos_test \
      --gtest_filter='ChaosTest.DifferentSeedsProduceDifferentSchedules'
}

# Supervised-sweep crash drill (docs/robustness.md "Supervised sweeps"):
# (1) a sweep with one force-tripped run must complete every other run,
#     write a partial sweep.json naming the failure (with the salvaged
#     post-mortem flight.tfct), and exit nonzero;
# (2) --resume must re-execute only the crashed run and go green;
# (3) the recovered sweep must be byte-identical, run for run, to three
#     plain single runs with the same seeds — supervision and resumption
#     never change what a run computes. The workload is the randomized
#     web-search benchmark, so different seeds give different spills and
#     a seed mix-up cannot pass.
# CI uploads build/sweep-smoke as the workflow's post-mortem artifact.
leg_sweep() {
  echo "=== [sweep] supervised sweep: crash isolation + resume + identity ==="
  cmake --preset release
  cmake --build build -j "$(nproc)" --target tfcsim
  local dir=build/sweep-smoke
  rm -rf "${dir}"
  local single=(--workload=benchmark --protocol=tfc --topology=testbed
                --duration=0.05 --trace-ring=16384)
  local common=("${single[@]}" --seed=9 --sweep=3)

  echo "--- [sweep] one tripped run fails alone, siblings complete ---"
  local rc=0
  ./build/examples/tfcsim "${common[@]}" --jobs=3 \
      --telemetry-dir="${dir}/supervised" \
      --force-audit-trip=3000 --trip-run=1 || rc=$?
  [[ "${rc}" -ne 0 ]] || { echo "sweep: tripped sweep exited 0" >&2; return 1; }
  [[ -s "${dir}/supervised/sweep.json" ]] || {
    echo "sweep: no partial sweep.json after the crash" >&2; return 1; }
  grep -q '"status": "failed"' "${dir}/supervised/sweep.json"
  grep -q '"salvaged": \["flight.tfct"\]' "${dir}/supervised/sweep.json"
  [[ -s "${dir}/supervised/run-0001/flight.tfct" ]] || {
    echo "sweep: crashed run's post-mortem was not salvaged" >&2; return 1; }
  python3 tools/telemetry_schema.py --sweep "${dir}/supervised"
  echo "sweep: partial sweep.json validates, post-mortem salvaged"

  echo "--- [sweep] --resume re-executes only the crashed run ---"
  rm -f "${dir}/supervised/run-0001/flight.tfct"
  ./build/examples/tfcsim "${common[@]}" --jobs=3 \
      --telemetry-dir="${dir}/supervised" --resume | tee "${dir}/resume.log"
  [[ "$(grep -c 'skipped-cached' "${dir}/resume.log")" -eq 2 ]] || {
    echo "sweep: resume did not skip the two completed runs" >&2; return 1; }
  grep -q '"status": "ok"' "${dir}/supervised/sweep.json"
  python3 tools/telemetry_schema.py --sweep "${dir}/supervised"
  echo "sweep: resume completed only the missing run"

  echo "--- [sweep] recovered sweep == plain single runs ---"
  if cmp -s "${dir}/supervised/run-0000/metrics.tfcb" \
            "${dir}/supervised/run-0001/metrics.tfcb"; then
    echo "sweep: seeds 9 and 10 gave identical spills; the comparison" \
         "below could not catch a seed mix-up" >&2
    return 1
  fi
  local k run
  for k in 0 1 2; do
    run="run-000${k}"
    # Sweep repetition K runs seed 9+K; a single run at that seed must
    # reproduce it byte for byte. Sweep runs arm a 5 s watchdog by
    # default, and its daemon ticks count in sim.events_executed, so the
    # single runs arm the same one.
    ./build/examples/tfcsim "${single[@]}" --seed="$((9 + k))" --watchdog=5 \
        --telemetry-dir="${dir}/clean/${run}" >/dev/null
    cmp "${dir}/supervised/${run}/metrics.tfcb" "${dir}/clean/${run}/metrics.tfcb"
    cmp "${dir}/supervised/${run}/summary.json" "${dir}/clean/${run}/summary.json"
    cmp "${dir}/supervised/${run}/flight.tfct" "${dir}/clean/${run}/flight.tfct"
  done
  echo "sweep: supervised+resumed outputs byte-identical to single runs"
}

# Benchmark outcome gate (perfbench/README.md): the benchmark's own smoke
# test, then a short end-to-end run of every BENCHMARK.json workload at one
# recorded seed. Each
# repetition's simulated outcome is checked against perfbench/reference.json
# (exact statistics for recorded seeds) and its invariants, so a core change
# that alters what a Fig. 15/16-scale run computes fails here. Timings are
# not gated.
leg_perfbench() {
  echo "=== [perfbench] smoke test + one timed run per workload ==="
  python3 perfbench/smoke_test.py
  # One short run.py run per workload at seed 0: run.py's own timing and
  # reporting path end to end. The outcomes leg checks every recorded
  # outcome, this seed's included.
  local workload result
  for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    echo "--- [perfbench] ${workload} --seed 0 ---"
    result=$(python3 perfbench/run.py --workload "${workload}" --seed 0 --seconds 3 --trace 0 | tail -n 1)
    echo "${result}"
    python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "${result}" || {
      echo "perfbench: ${workload} at seed 0 failed its outcome check" >&2; return 1; }
  done
  echo "perfbench: every workload correct, 0 failed"
}

# Every simulated outcome perfbench/reference.json records: 84 full-scale
# and 4 tiny network seeds per workload, 264 driver runs, one process per
# core, each checked by run.py's own check_outcome. It reads perfbench/
# and writes nothing there. A speed-only change to the simulator proves
# all of them with this one leg; the perfbench leg only runs run.py itself
# once per workload.
leg_outcomes() {
  echo "=== [outcomes] every recorded perfbench outcome ==="
  python3 tools/check_outcomes.py
}

case "${1:-all}" in
  release)    leg_release ;;
  figures)    leg_figures ;;
  asan-ubsan) leg_asan_ubsan ;;
  hardened)   leg_hardened ;;
  tsan)       leg_tsan ;;
  lint)       leg_lint ;;
  astlint)    leg_astlint ;;
  tidy)       leg_tidy ;;
  telemetry)  leg_telemetry ;;
  trace)      leg_trace ;;
  chaos)      leg_chaos ;;
  sweep)      leg_sweep ;;
  perfbench)  leg_perfbench ;;
  outcomes)   leg_outcomes ;;
  all)
    leg_release
    leg_figures
    leg_asan_ubsan
    leg_hardened
    leg_tsan
    leg_lint
    leg_astlint
    leg_tidy
    leg_telemetry
    leg_trace
    leg_chaos
    leg_sweep
    leg_perfbench
    leg_outcomes
    echo "=== ci.sh: all legs green ==="
    ;;
  *)
    echo "usage: $0 [release|figures|asan-ubsan|hardened|tsan|lint|astlint|tidy|telemetry|trace|chaos|sweep|perfbench|outcomes|all]" >&2
    exit 2
    ;;
esac
