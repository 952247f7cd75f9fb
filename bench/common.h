// Shared helpers for the per-figure reproduction benches.
//
// Every bench binary is standalone: run it with no arguments and it prints
// the rows of the paper table/figure it reproduces, plus a short header
// explaining what to compare against. Pass --quick to any bench to shrink
// durations/sweeps for smoke-testing.

#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/sim/stats.h"
#include "src/workload/protocol.h"

namespace tfc {
namespace bench {

inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      return true;
    }
  }
  return false;
}

inline void Header(const char* figure, const char* claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", claim);
  std::printf("==============================================================================\n");
}

inline const std::vector<Protocol>& AllProtocols() {
  static const std::vector<Protocol> kAll = {Protocol::kTfc, Protocol::kDctcp,
                                             Protocol::kTcp};
  return kAll;
}

// Prints a mean + tail-percentile row for a sample population (the paper's
// Fig. 13a/16a format).
inline void PrintTailRow(const char* label, SampleSet& samples, double scale = 1.0,
                         const char* unit = "us") {
  if (samples.empty()) {
    std::printf("%-8s (no samples)\n", label);
    return;
  }
  std::printf("%-8s n=%-6zu mean=%9.1f%s  95th=%9.1f%s  99th=%9.1f%s  99.9th=%9.1f%s  "
              "99.99th=%9.1f%s\n",
              label, samples.count(), samples.Mean() / scale, unit,
              samples.Percentile(95) / scale, unit, samples.Percentile(99) / scale, unit,
              samples.Percentile(99.9) / scale, unit, samples.Percentile(99.99) / scale,
              unit);
}

}  // namespace bench
}  // namespace tfc

#endif  // BENCH_COMMON_H_
