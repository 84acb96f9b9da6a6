// Timing and statistics helpers shared by the benchmark driver and the
// layer waterfall.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dpstarj::perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (spans and latencies share this base).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// \brief Nearest-rank quantile of `values` (q in (0, 1]); NaN when empty.
/// +inf entries (failed requests) sort last, so a quantile that lands on one
/// reports that the limit was missed.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// \brief One span of the traced run: a call into a layer's public function
/// (or one client request), named "<layer>.<call>". `parent` names the span
/// of the calling layer for the same request id ("" at the top).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string parent;
  uint64_t request_id = 0;
};

}  // namespace dpstarj::perfbench
