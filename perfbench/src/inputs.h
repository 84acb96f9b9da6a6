// Seeded input generator of the end-to-end benchmark. Every request the
// benchmark sends is a pure function of (workload seed, request index), so
// the same seed replays the same inputs on any commit. The generator draws
// from its own std::mt19937_64 streams — never from the library's Rng — so
// a change to the program's noise source cannot change the inputs.
//
// The generator also proves the properties each workload relies on (see
// perfbench/README.md): distinct explore keys, predicate sharing within and
// no repeats across report_stream batches, and ingest rows that reference
// existing dimension keys.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/catalog.h"
#include "storage/value.h"

namespace dpstarj::perfbench {

/// One star-join query as the wire sends it.
struct QuerySpec {
  std::string sql;
  double epsilon = 0.0;
  bool grouped = false;  ///< the response must carry groups, not a scalar
};

/// The /v1/query body of `q` for `tenant`.
std::string QueryBody(const QuerySpec& q, const std::string& tenant);

/// The /v1/workload body of `batch` for `tenant`.
std::string BatchBody(const std::vector<QuerySpec>& batch, const std::string& tenant);

/// One /v1/ingest batch.
struct IngestBatch {
  std::string table;  ///< "Lineorder" or "Customer"
  std::vector<std::vector<storage::Value>> rows;
  /// The request body, {"table": ..., "rows": [[...], ...]}.
  std::string Body() const;
};

/// Row counts of the served catalog the inputs are generated against.
struct CatalogShape {
  int64_t lineorder = 0;
  int64_t customer = 0;
  int64_t supplier = 0;
  int64_t part = 0;
  int64_t date = 0;
  static Result<CatalogShape> Of(const storage::Catalog& catalog);
};

/// Queries of one /v1/workload batch (all share one ε).
using Batch = std::vector<QuerySpec>;

/// \brief The explore workload: request `index` is a fresh instance of one
/// of the paper's nine SSB templates (Qc1–Qc4, Qs2–Qs4, Qg2, Qg4) with
/// predicate constants drawn from the template's domains and
/// ε = 1/4 + p(index)/2^20, where p is a bijection on [0, 2^18). Distinct
/// indices below 2^18 therefore never share a (query, ε) cache key, and
/// every ε is a dyadic rational, so ledger sums are exact.
QuerySpec ExploreQuery(uint64_t seed, uint64_t index);
/// Largest explore index whose ε is distinct from every smaller one.
inline constexpr uint64_t kExploreIndexLimit = uint64_t{1} << 18;

/// The nine templates at the paper's own constants, ε = 1 (outside every
/// explore ε, so warm-up answers never collide with timed requests).
std::vector<QuerySpec> TemplateWarmups();

/// \brief The dashboard's 16 tiles: the nine templates at the paper's
/// constants plus seeded instances of Qc1–Qc4 and Qs2–Qs4, each at ε = 1/2.
std::vector<QuerySpec> DashboardQueries(uint64_t seed);

/// \brief Poisson arrival offsets (seconds from the window start) at `rate`
/// per second over `seconds`.
std::vector<double> PoissonSchedule(uint64_t seed, double rate, double seconds);

/// \brief report_stream batch `index`: 16 W1/W2-shaped queries over
/// Date.year and Customer/Supplier region — two year ranges × two customer
/// regions × two supplier regions × {count, sum(revenue)} — so every
/// per-dimension predicate is shared by eight queries of the batch. The
/// batch's ε = 1/4 + p(index)/2^20, p a bijection on [0, 2^18), differs from
/// every other batch's, so no query repeats across batches.
Batch ReportBatch(uint64_t seed, uint64_t index);
inline constexpr uint64_t kReportIndexLimit = uint64_t{1} << 18;

/// \brief report_stream warm-up batch (ε = 1): one count and one sum query,
/// the two plan shapes every report batch uses.
Batch ReportWarmupBatch();

/// \brief Ingest batch `index` against a catalog of `shape`: every tenth
/// batch appends 8 Customer rows (new keys after the base and every earlier
/// Customer batch), the rest append 32 Lineorder rows whose foreign keys
/// fall inside the base dimension key ranges.
IngestBatch IngestBatchAt(uint64_t seed, uint64_t index,
                          const CatalogShape& shape);

/// \brief Checks that explore requests [0, count) have pairwise distinct
/// canonical (query, ε) keys against `catalog`.
Status CheckExploreDistinct(const storage::Catalog& catalog, uint64_t seed,
                            uint64_t count);

/// \brief Checks report_stream batches [0, count): within each batch the 16
/// queries make 48 predicate references to exactly six distinct predicates,
/// and no canonical (query, ε) key appears twice across all batches.
Status CheckReportBatches(const storage::Catalog& catalog, uint64_t seed,
                          uint64_t count);

/// \brief Checks that every foreign key of the Lineorder ingest batches
/// among [0, count) references a primary key present in `catalog`.
Status CheckIngestKeys(const storage::Catalog& catalog, uint64_t seed,
                       uint64_t count, const CatalogShape& shape);

}  // namespace dpstarj::perfbench
