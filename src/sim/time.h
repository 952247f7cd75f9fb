// Simulation time representation.
//
// All simulation timestamps and durations are TimeNs — a strong type over a
// signed 64-bit nanosecond count (src/sim/units.h). Nanosecond granularity
// is fine enough to represent serialization of a minimum-size Ethernet
// frame at 100 Gbps (~6.7 ns) and coarse enough that an int64_t covers
// ~292 years of simulated time. Since PR 7, TimeNs is a real type, not an
// alias: time refuses to mix with byte counts, rates, or tokens at compile
// time.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>

#include "src/sim/units.h"

namespace tfc {

inline constexpr TimeNs kNanosecond{1};
inline constexpr TimeNs kMicrosecond = 1000 * kNanosecond;
inline constexpr TimeNs kMillisecond = 1000 * kMicrosecond;
inline constexpr TimeNs kSecond = 1000 * kMillisecond;

// Convenience constructors for readable call sites.
constexpr TimeNs Nanoseconds(int64_t n) { return TimeNs(n); }
constexpr TimeNs Microseconds(int64_t n) { return n * kMicrosecond; }
constexpr TimeNs Milliseconds(int64_t n) { return n * kMillisecond; }
constexpr TimeNs Seconds(double s) {
  return TimeNs(s * static_cast<double>(kSecond.count()));
}

// Whether `ns`, a nanosecond count held in a double, converts to TimeNs
// without undefined behavior: the cast is undefined for NaN, +-inf, and any
// value outside int64 (about +-292 years). Check `s * 1e9` before calling
// Seconds(s) on untrusted input.
constexpr bool FitsTimeNs(double ns) { return ns >= -0x1p63 && ns < 0x1p63; }

// Conversions to floating-point seconds, for statistics and printing.
constexpr double ToSeconds(TimeNs t) {
  return static_cast<double>(t.count()) / static_cast<double>(kSecond.count());
}
constexpr double ToMicroseconds(TimeNs t) {
  return static_cast<double>(t.count()) / static_cast<double>(kMicrosecond.count());
}
constexpr double ToMilliseconds(TimeNs t) {
  return static_cast<double>(t.count()) / static_cast<double>(kMillisecond.count());
}

}  // namespace tfc

#endif  // SRC_SIM_TIME_H_
