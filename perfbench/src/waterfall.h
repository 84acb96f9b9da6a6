// The layer waterfall of the traced run: the benchmark calls each layer's
// public functions directly, from outside the program, on a seeded sample of
// the workload's inputs, and records one span per call. Calls nest as
//
//   net.round_trip ⊃ service.submit ⊃ core.answer ⊃ exec.scan
//                                      core.answer ⊃ core.perturb
//
// and each layer is timed once per input, in one pass per layer, so no call
// finds the previous layer's data warm in cache. A layer's self time is the
// median over inputs of its time minus the time of the layer it calls on the
// same input. The program gets no new spans: the server's own stage
// histograms, scraped from GET /metrics around the waterfall's wire requests,
// give the queue wait and the unattributed residual of exactly those
// requests.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "inputs.h"
#include "measure.h"
#include "service/query_service.h"
#include "storage/catalog.h"

namespace dpstarj::perfbench {

/// The request a workload sends in its timed window; the waterfall's
/// net.round_trip times the same kind, so net.self subtracts like for like.
enum class RequestKind { kFreshQuery, kReplayQuery, kBatch };

/// \brief Inputs of one waterfall: fresh (never sent) samples of the
/// workload's own queries, batches and ingest batches.
struct WaterfallInputs {
  std::vector<QuerySpec> queries;
  std::vector<Batch> batches;
  std::vector<IngestBatch> ingests;  ///< Lineorder batches only
  RequestKind request = RequestKind::kFreshQuery;
  /// kReplayQuery: already-answered requests that net.round_trip replays.
  std::vector<QuerySpec> replays;
};

/// \brief The live stack the waterfall measures. The catalog is the served
/// one; the waterfall appends to its Lineorder table through the service
/// (last, after every read-only measurement).
struct WaterfallTarget {
  const storage::Catalog* catalog = nullptr;
  service::QueryService* service = nullptr;
  std::string host;
  uint16_t port = 0;
  std::string tenant;
};

/// Per-layer metric name → value.
using MetricMap = std::map<std::string, double>;

/// \brief Runs the waterfall; fills the per-layer timing metrics (query.*,
/// exec.* timings and counts per row, core.*, service.submit/self/replay/
/// workload/ingest/queue_wait, storage.append, net.*) and appends one span
/// per timed call to `spans`. `wire_ingest_ms` receives the acknowledgement
/// latency of each ingest batch the waterfall sends over the wire.
Result<MetricMap> RunWaterfall(const WaterfallTarget& target,
                               const WaterfallInputs& inputs, uint64_t seed,
                               std::vector<Span>* spans,
                               std::vector<double>* wire_ingest_ms);

}  // namespace dpstarj::perfbench
