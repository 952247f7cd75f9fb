#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at tiny scale in both trace modes and
checks that the result line names every declared metric with its unit and
that the outcome check passed. Then checks that the benchmark fails, without
printing a result, in a directory holding only BENCHMARK.json and perfbench/.

    python3 perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, cwd, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check_result(bench, proc, trace):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"outcome check: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def check_without_sources(bench):
    """The benchmark must refuse to run when the simulator sources are absent."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bench, bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit code {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    cases = [(w["name"], trace) for w in bench["workloads"] for trace in (0, 1)]
    for workload, trace in cases:
        problems = check_result(bench, run(bench, ROOT, workload, trace), trace)
        print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
        for p in problems:
            print(f"     {p}")
        failed |= bool(problems)
    problems = check_without_sources(bench)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without src/")
    for p in problems:
        print(f"     {p}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
