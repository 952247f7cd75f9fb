#!/usr/bin/env bash
# Regenerates the golden output corpus under tests/golden/ from a configured
# and built tree (docs/correctness.md "Golden outputs").
#
#   tools/update_golden.sh [BUILD_DIR]      (default: build)
#
# The golden ctest cases (bench_smoke_*, tfcsim_golden_*, example_golden_*)
# leave each fresh output in the build tree whether or not it matches. This
# runs them once, copies those outputs over the committed files, then runs
# them again: they must now pass, so a crash or a nonzero exit still fails
# here. Review the result with `git diff tests/golden`, and say in
# CHANGES.md why every changed output changed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"
tests='^(bench_smoke|tfcsim_golden|example_golden)_'

rm -rf "${build}"/bench/golden/* "${build}"/examples/golden/*
ctest --test-dir "${build}" -R "${tests}" -j "$(nproc)" >/dev/null || true
cp "${build}"/bench/golden/*.txt tests/golden/bench/
cp "${build}"/examples/golden/*.sha256 tests/golden/tfcsim/
cp "${build}"/examples/golden/*.txt tests/golden/examples/
ctest --test-dir "${build}" -R "${tests}" -j "$(nproc)" --output-on-failure
