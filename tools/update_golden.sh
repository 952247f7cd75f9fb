#!/usr/bin/env bash
# Regenerates the golden output corpus under tests/golden/ from a configured
# and built tree (docs/correctness.md "Golden outputs").
#
#   tools/update_golden.sh [BUILD_DIR]      (default: build)
#
# The golden ctest cases (bench_smoke_*, tfcsim_golden_*, example_golden_*,
# and bench_full_* when the tree was configured with -DTFC_FULL_GOLDEN=ON,
# as the figures preset is) leave each fresh output in the build tree
# whether or not it matches. This runs them once, copies those outputs over
# the committed files, then runs them again: they must now pass, so a crash
# or a nonzero exit still fails here. Review the result with
# `git diff tests/golden`, and say in CHANGES.md why every changed output
# changed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"
tests='^(bench_smoke|tfcsim_golden|example_golden)_'
full=0
if grep -q '^TFC_FULL_GOLDEN:BOOL=ON$' "${build}/CMakeCache.txt"; then
  full=1
  tests='^(bench_smoke|bench_full|tfcsim_golden|example_golden)_'
fi

rm -rf "${build}"/bench/golden/*.txt "${build}"/bench/golden/full/* \
    "${build}"/examples/golden/*
ctest --test-dir "${build}" -R "${tests}" -j "$(nproc)" >/dev/null || true
cp "${build}"/bench/golden/*.txt tests/golden/bench/
if [[ "${full}" -eq 1 ]]; then
  cp "${build}"/bench/golden/full/*.txt tests/golden/full/
fi
cp "${build}"/examples/golden/*.sha256 tests/golden/tfcsim/
cp "${build}"/examples/golden/*.txt tests/golden/examples/
ctest --test-dir "${build}" -R "${tests}" -j "$(nproc)" --output-on-failure
