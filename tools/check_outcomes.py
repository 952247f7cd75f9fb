#!/usr/bin/env python3
"""Checks every simulated outcome perfbench/reference.json records.

Builds the perfbench driver the way perfbench/run.py does, runs it once on
every (scale, workload, network seed) the reference records, one driver
process per core, and applies run.py's own check_outcome to each result:
the outcome must equal the recorded one exactly and pass its invariants.
Timings are not looked at. Nothing under perfbench/ is written.

    python3 tools/check_outcomes.py

Prints one line per failing run and a summary; exits 1 if any run failed.
A speed-only change to the simulator must leave all of them passing.
"""

import concurrent.futures
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/

import run  # noqa: E402  (perfbench/run.py)


def check_one(binary, scale, workload, net_seed, reference):
    """Runs one recorded network seed; returns its problems."""
    rep = run.drive(binary, workload, net_seed, scale)
    return run.check_outcome(workload, scale, rep, reference)


def main():
    if len(sys.argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        binary = run.build()
    except (run.BenchError, OSError) as e:
        print(f"check_outcomes: {e}", file=sys.stderr)
        return 1
    reference = run.load_reference()
    cases = sorted((scale, workload, int(seed))
                   for scale, workloads in reference.items()
                   for workload, seeds in workloads.items()
                   for seed in seeds)
    failed = 0
    # Worker processes, not threads: run.drive names its run directory
    # after the calling process.
    with concurrent.futures.ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        futures = {pool.submit(check_one, binary, *case, reference): case for case in cases}
        for future in concurrent.futures.as_completed(futures):
            scale, workload, seed = futures[future]
            try:
                problems = future.result()
            except (run.BenchError, OSError, ValueError, KeyError) as e:
                problems = [str(e)]
            if problems:
                failed += 1
                print(f"FAIL {scale}/{workload}/{seed}: {'; '.join(problems)}")
    print(f"check_outcomes: {len(cases) - failed} of {len(cases)} recorded outcomes hold",
          file=sys.stderr)
    return 1 if failed or not cases else 0


if __name__ == "__main__":
    sys.exit(main())
