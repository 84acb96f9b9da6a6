#include "waterfall.h"

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/predicate_mechanism.h"
#include "exec/plan_cache.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "exec/workload_plan.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/trace.h"
#include "query/binder.h"
#include "query/canonical.h"
#include "ssb/ssb_schema.h"
#include "storage/table.h"

namespace dpstarj::perfbench {

namespace {

// ε offsets that give each service-level call its own answer-cache key
// without changing its cost: the window's ε values lie on a 2^-20 grid, these
// sit far below it, and all stay dyadic.
constexpr double kSubmitVariant = 0x1.0p-40;
constexpr double kWireVariant = 0x2.0p-40;
constexpr double kWorkloadVariant = 0x3.0p-40;
constexpr double kWireBatchVariant = 0x4.0p-40;

QuerySpec Variant(QuerySpec q, double offset) {
  q.epsilon += offset;
  return q;
}

Batch Variant(Batch batch, double offset) {
  for (QuerySpec& q : batch) q.epsilon += offset;
  return batch;
}

/// Times calls and keeps one span per call plus the per-name durations.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>* spans) : spans_(spans) {}

  template <typename Fn>
  auto Time(const std::string& name, const std::string& parent, uint64_t id,
            Fn&& fn) {
    const int64_t start = NowNs();
    auto out = fn();
    const int64_t end = NowNs();
    spans_->push_back({name, start, end, parent, id});
    durations_[name].push_back(static_cast<double>(end - start));
    return out;
  }

  /// Median duration of `name` in microseconds (NaN when never timed).
  double MedianUs(const std::string& name) const {
    auto it = durations_.find(name);
    return it == durations_.end() ? std::numeric_limits<double>::quiet_NaN()
                                  : Median(it->second) * 1e-3;
  }
  /// Self time of `caller` over `callee` in microseconds: the median over
  /// inputs of the paired difference, each layer having been timed once per
  /// input in the same input order.
  double SelfUs(const std::string& caller, const std::string& callee) const {
    auto a = durations_.find(caller);
    auto b = durations_.find(callee);
    if (a == durations_.end() || b == durations_.end() ||
        a->second.size() != b->second.size()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<double> diff;
    for (size_t i = 0; i < a->second.size(); ++i) {
      diff.push_back(a->second[i] - b->second[i]);
    }
    return Median(diff) * 1e-3;
  }
  double TotalNs(const std::string& name) const {
    auto it = durations_.find(name);
    double total = 0.0;
    if (it != durations_.end()) {
      for (double d : it->second) total += d;
    }
    return total;
  }

 private:
  std::vector<Span>* spans_;
  std::map<std::string, std::vector<double>> durations_;
};

Status HttpOk(const Result<net::HttpResponse>& r, const char* what) {
  if (!r.ok()) return r.status();
  if (r->status != 200) {
    return Status::Internal(Format("%s: HTTP %d %s", what, r->status, r->body.c_str()));
  }
  return Status::OK();
}

/// Cumulative bucket counts of one histogram family from a /metrics scrape:
/// label value → (upper bound, cumulative count) in exposition order.
using Buckets = std::map<std::string, std::vector<std::pair<double, double>>>;

Result<Buckets> ScrapeHistogram(net::Client* client, const std::string& family,
                                const std::string& label) {
  auto r = client->Get("/metrics");
  DPSTARJ_RETURN_NOT_OK(HttpOk(r, "GET /metrics"));
  Buckets out;
  const std::string prefix = family + "_bucket{" + label + "=\"";
  size_t pos = 0;
  while (pos < r->body.size()) {
    size_t eol = r->body.find('\n', pos);
    if (eol == std::string::npos) eol = r->body.size();
    const std::string line = r->body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const size_t value_end = line.find('"', prefix.size());
    const size_t le = line.find("le=\"", value_end);
    const size_t le_end = le == std::string::npos ? le : line.find('"', le + 4);
    const size_t space = line.rfind(' ');
    if (value_end == std::string::npos || le_end == std::string::npos ||
        space == std::string::npos) {
      return Status::Internal("unparseable /metrics line: " + line);
    }
    const std::string bound = line.substr(le + 4, le_end - le - 4);
    out[line.substr(prefix.size(), value_end - prefix.size())].emplace_back(
        bound == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(bound),
        std::stod(line.substr(space + 1)));
  }
  return out;
}

/// p50 (µs) of the observations a histogram child gained between two
/// scrapes, with the library's own bucket interpolation; NaN when none.
double DeltaP50Us(const Buckets& before, const Buckets& after, const std::string& key) {
  auto a = after.find(key);
  if (a == after.end()) return std::numeric_limits<double>::quiet_NaN();
  auto b = before.find(key);
  obs::HistogramSnapshot snap;
  double previous = 0.0;
  for (size_t i = 0; i < a->second.size(); ++i) {
    double cumulative = a->second[i].second;
    if (b != before.end() && i < b->second.size()) cumulative -= b->second[i].second;
    if (std::isfinite(a->second[i].first)) snap.upper_bounds.push_back(a->second[i].first);
    snap.counts.push_back(static_cast<uint64_t>(cumulative - previous));
    previous = cumulative;
  }
  snap.count = static_cast<uint64_t>(previous);
  if (snap.count == 0) return std::numeric_limits<double>::quiet_NaN();
  return snap.Quantile(0.5) * 1e6;
}

}  // namespace

Result<MetricMap> RunWaterfall(const WaterfallTarget& target,
                               const WaterfallInputs& inputs, uint64_t seed,
                               std::vector<Span>* spans,
                               std::vector<double>* wire_ingest_ms) {
  if (inputs.queries.empty() || inputs.batches.empty() || inputs.ingests.empty() ||
      (inputs.request == RequestKind::kReplayQuery && inputs.replays.empty())) {
    return Status::InvalidArgument("waterfall needs queries, batches and ingests");
  }
  // The engines' executor configuration: one scan thread per query, as the
  // service resolves it for a pool as wide as the host.
  exec::ExecutorOptions exec_options;
  exec_options.exec_threads = 1;
  auto plans = std::make_shared<exec::PlanCache>();
  core::PredicateMechanism pm(core::PmaOptions{}, exec_options, plans);
  exec::StarJoinExecutor executor(exec_options);
  query::Binder binder(target.catalog);
  Rng rng(seed);
  net::Client client(target.host, target.port);
  Recorder rec(spans);
  MetricMap m;

  // Warm the waterfall's own plan cache so every timed execution below is
  // the warm path the service's engines take.
  std::vector<query::BoundQuery> bound;
  for (const QuerySpec& q : inputs.queries) {
    DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery b, binder.BindSql(q.sql));
    DPSTARJ_RETURN_NOT_OK(plans->GetOrCompile(b).status());
    bound.push_back(std::move(b));
  }
  std::vector<std::vector<query::BoundQuery>> bound_batches;
  for (const Batch& batch : inputs.batches) {
    std::vector<query::BoundQuery> bb;
    for (const QuerySpec& q : batch) {
      DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery b, binder.BindSql(q.sql));
      DPSTARJ_RETURN_NOT_OK(plans->GetOrCompile(b).status());
      bb.push_back(std::move(b));
    }
    bound_batches.push_back(std::move(bb));
  }

  // The server's own stage histograms, scraped around the passes below: the
  // only HTTP requests between the two scrapes are the waterfall's
  // net.round_trip calls, so the deltas describe exactly those requests.
  const char* route = inputs.request == RequestKind::kBatch
                          ? "dpstarj_workload_duration_seconds"
                          : "dpstarj_query_duration_seconds";
  const char* kStages = "dpstarj_stage_duration_seconds";
  DPSTARJ_ASSIGN_OR_RETURN(Buckets stages_before,
                           ScrapeHistogram(&client, kStages, "stage"));
  DPSTARJ_ASSIGN_OR_RETURN(Buckets route_before,
                           ScrapeHistogram(&client, route, "outcome"));

  // ---- single queries: one pass per layer over the same sample, so every
  // call follows a different query and no layer finds its predecessor's
  // data warm in cache. ------------------------------------------------------
  const size_t n = inputs.queries.size();
  std::vector<Rng> draws;
  std::vector<exec::PredicateOverrides> overrides(n);
  for (size_t j = 0; j < n; ++j) {
    const QuerySpec& q = inputs.queries[j];
    DPSTARJ_ASSIGN_OR_RETURN(
        query::BoundQuery b,
        rec.Time("query.bind", "service.submit", j, [&] { return binder.BindSql(q.sql); }));
    rec.Time("query.canonical", "service.submit", j,
             [&] { return query::CanonicalEpochKey(b, q.epsilon); });
    // core.answer replays this draw, so it scans exactly what exec.scan
    // scans and the difference of the two is core's own work.
    draws.push_back(rng);
    DPSTARJ_ASSIGN_OR_RETURN(
        overrides[j], rec.Time("core.perturb", "core.answer", j, [&] {
          return pm.PerturbPredicates(bound[j], q.epsilon, &rng);
        }));
  }
  double scan_rows = 0.0, scan_cycles = 0.0, scan_instr = 0.0;
  for (size_t j = 0; j < n; ++j) {
    DPSTARJ_ASSIGN_OR_RETURN(auto plan, plans->GetOrCompile(bound[j]));
    // One scan thread, so the calling thread's counter group sees it all.
    const obs::prof::CounterSet c0 = obs::prof::SampleThreadCounters();
    DPSTARJ_RETURN_NOT_OK(rec.Time("exec.scan", "core.answer", j, [&] {
                               return executor.Execute(bound[j], overrides[j], *plan);
                             }).status());
    const obs::prof::CounterSet c1 = obs::prof::SampleThreadCounters();
    scan_rows += static_cast<double>(bound[j].fact->num_rows());
    scan_cycles += static_cast<double>(c1.cycles - c0.cycles);
    scan_instr += static_cast<double>(c1.instructions - c0.instructions);
  }
  std::vector<double> errors;
  for (size_t j = 0; j < n; ++j) {
    DPSTARJ_ASSIGN_OR_RETURN(
        exec::QueryResult noisy, rec.Time("core.answer", "service.submit", j, [&] {
          return pm.Answer(bound[j], inputs.queries[j].epsilon, &draws[j]);
        }));
    // The exact answer: the same plan with the query's own predicates.
    DPSTARJ_ASSIGN_OR_RETURN(auto plan, plans->GetOrCompile(bound[j]));
    DPSTARJ_ASSIGN_OR_RETURN(
        exec::QueryResult exact,
        executor.Execute(bound[j], exec::PredicateOverrides(bound[j].dims.size()), *plan));
    errors.push_back(RelativeErrorPercent(noisy.Total(), exact.Total()));
  }
  // service.submit draws its own noise, so its engine work differs from
  // core.answer's draw; its self time subtracts the engine stages its own
  // trace recorded in the same call instead.
  std::vector<double> service_self_ns;
  for (size_t j = 0; j < n; ++j) {
    const QuerySpec q = Variant(inputs.queries[j], kSubmitVariant);
    obs::Trace trace;
    const int64_t start = NowNs();
    DPSTARJ_RETURN_NOT_OK(rec.Time("service.submit", "net.round_trip", j, [&] {
                               return target.service
                                   ->Submit(q.sql, q.epsilon, target.tenant, &trace)
                                   .get();
                             }).status());
    double core_ns = 0.0;
    for (obs::Stage stage : {obs::Stage::kNoiseDraw, obs::Stage::kPlanCompile,
                             obs::Stage::kPlanExtend, obs::Stage::kBitmapRebuild,
                             obs::Stage::kScan}) {
      core_ns += static_cast<double>(trace.stage_ns(stage));
    }
    service_self_ns.push_back(static_cast<double>(NowNs() - start) - core_ns);
  }
  // The same keys again: answer-cache replays.
  for (size_t j = 0; j < n; ++j) {
    const QuerySpec q = Variant(inputs.queries[j], kSubmitVariant);
    DPSTARJ_RETURN_NOT_OK(rec.Time("service.replay", "net.round_trip", j, [&] {
                               return target.service->Submit(q.sql, q.epsilon,
                                                             target.tenant)
                                   .get();
                             }).status());
  }
  for (size_t j = 0; inputs.request != RequestKind::kBatch && j < n; ++j) {
    const QuerySpec q = inputs.request == RequestKind::kReplayQuery
                            ? inputs.replays[j % inputs.replays.size()]
                            : Variant(inputs.queries[j], kWireVariant);
    const std::string body = QueryBody(q, target.tenant);
    DPSTARJ_RETURN_NOT_OK(HttpOk(rec.Time("net.round_trip", "", j,
                                          [&] { return client.Post("/v1/query", body); }),
                                 "POST /v1/query"));
  }

  // ---- batches: exec shared scan, core batch answer, service workload ----
  double nodes = 0.0, refs = 0.0;
  for (size_t k = 0; k < inputs.batches.size(); ++k) {
    const Batch& batch = inputs.batches[k];
    const uint64_t id = inputs.queries.size() + k;
    std::vector<exec::PredicateOverrides> overrides(batch.size());
    std::vector<exec::WorkloadItem> items;
    std::vector<core::BatchQueryRef> refs_in;
    for (size_t i = 0; i < batch.size(); ++i) {
      DPSTARJ_ASSIGN_OR_RETURN(
          overrides[i], pm.PerturbPredicates(bound_batches[k][i], batch[i].epsilon, &rng));
      DPSTARJ_ASSIGN_OR_RETURN(auto plan, plans->GetOrCompile(bound_batches[k][i]));
      items.push_back({&bound_batches[k][i], &overrides[i], std::move(plan)});
      refs_in.push_back({&bound_batches[k][i], batch[i].epsilon});
    }
    DPSTARJ_ASSIGN_OR_RETURN(
        exec::WorkloadExecStats stats,
        rec.Time("exec.batch", "core.batch_answer", id,
                 [&]() -> Result<exec::WorkloadExecStats> {
                   DPSTARJ_ASSIGN_OR_RETURN(exec::WorkloadPlan wp,
                                            exec::WorkloadPlan::Compile(items));
                   DPSTARJ_RETURN_NOT_OK(wp.Execute(exec_options).status());
                   return wp.stats();
                 }));
    nodes += static_cast<double>(stats.predicate_nodes);
    refs += static_cast<double>(stats.predicate_refs);
    auto answers = rec.Time("core.batch_answer", "service.workload", id,
                            [&] { return pm.AnswerBatch(refs_in, &rng); });
    for (const auto& a : answers) DPSTARJ_RETURN_NOT_OK(a.status());
    const Batch sent = Variant(batch, kWorkloadVariant);
    std::vector<service::WorkloadQuerySpec> specs;
    for (const QuerySpec& q : sent) specs.push_back({q.sql, q.epsilon});
    DPSTARJ_ASSIGN_OR_RETURN(
        service::WorkloadOutcome outcome,
        rec.Time("service.workload", "net.round_trip", id, [&] {
          return target.service->SubmitWorkload(specs, target.tenant).get();
        }));
    for (const auto& qo : outcome.queries) DPSTARJ_RETURN_NOT_OK(qo.status);
    if (inputs.request == RequestKind::kBatch) {
      const std::string body =
          BatchBody(Variant(batch, kWireBatchVariant), target.tenant);
      DPSTARJ_RETURN_NOT_OK(HttpOk(rec.Time("net.round_trip", "", id,
                                            [&] { return client.Post("/v1/workload", body); }),
                                   "POST /v1/workload"));
    }
  }

  DPSTARJ_ASSIGN_OR_RETURN(Buckets stages_after,
                           ScrapeHistogram(&client, kStages, "stage"));
  DPSTARJ_ASSIGN_OR_RETURN(Buckets route_after,
                           ScrapeHistogram(&client, route, "outcome"));
  double stage_sum_us = 0.0;
  for (const auto& [stage, unused] : stages_after) {
    const double p50 = DeltaP50Us(stages_before, stages_after, stage);
    if (std::isfinite(p50)) stage_sum_us += p50;
  }

  // ---- cold compiles --------------------------------------------------------
  for (size_t j = 0; j < inputs.queries.size() && j < 12; ++j) {
    DPSTARJ_RETURN_NOT_OK(rec.Time("exec.compile", "core.answer", j, [&] {
                               return exec::ScanPlan::Compile(bound[j]);
                             }).status());
  }

  // ---- storage: validate + append into a private table of the schema ------
  {
    DPSTARJ_ASSIGN_OR_RETURN(
        std::shared_ptr<storage::Table> scratch,
        storage::Table::Create(ssb::kLineorder, ssb::LineorderSchema()));
    for (size_t i = 0; i < inputs.ingests.size(); ++i) {
      const IngestBatch& batch = inputs.ingests[i];
      DPSTARJ_RETURN_NOT_OK(rec.Time("storage.append", "service.ingest", i, [&] {
        for (const auto& row : batch.rows) {
          DPSTARJ_RETURN_NOT_OK(scratch->ValidateRow(row));
        }
        for (const auto& row : batch.rows) {
          DPSTARJ_RETURN_NOT_OK(scratch->AppendRow(row));
        }
        return Status::OK();
      }));
    }
  }

  // ---- the served table grows: service ingest, plan extension, wire acks --
  // Half the batches go through QueryService::Ingest (each followed by an
  // ExtendFrom of a plan compiled before it), half over the wire.
  const size_t half = (inputs.ingests.size() + 1) / 2;
  for (size_t i = 0; i < inputs.ingests.size(); ++i) {
    const IngestBatch& batch = inputs.ingests[i];
    if (i >= half) {
      const std::string body = batch.Body();
      const int64_t start = NowNs();
      DPSTARJ_RETURN_NOT_OK(HttpOk(client.Post("/v1/ingest", body), "POST /v1/ingest"));
      wire_ingest_ms->push_back(static_cast<double>(NowNs() - start) * 1e-6);
      continue;
    }
    const size_t j = i % inputs.queries.size();
    DPSTARJ_ASSIGN_OR_RETURN(auto before, plans->GetOrCompile(bound[j]));
    DPSTARJ_RETURN_NOT_OK(rec.Time("service.ingest", "net.round_trip", i, [&] {
                               return target.service->Ingest(batch.table, batch.rows)
                                   .status();
                             }));
    DPSTARJ_ASSIGN_OR_RETURN(bound[j], binder.BindSql(inputs.queries[j].sql));
    DPSTARJ_RETURN_NOT_OK(rec.Time("exec.extend", "core.answer", i, [&] {
                               return exec::ScanPlan::ExtendFrom(*before, bound[j]);
                             }).status());
  }

  m["query.bind_us_p50"] = rec.MedianUs("query.bind");
  m["query.canonical_us_p50"] = rec.MedianUs("query.canonical");
  m["exec.compile_ms_p50"] = rec.MedianUs("exec.compile") * 1e-3;
  m["exec.scan_us_p50"] = rec.MedianUs("exec.scan");
  m["exec.scan_rows_per_s"] = scan_rows / (rec.TotalNs("exec.scan") * 1e-9);
  m["exec.cycles_per_row"] = scan_cycles / scan_rows;
  m["exec.instr_per_row"] = scan_instr / scan_rows;
  m["exec.batch_us_p50"] = rec.MedianUs("exec.batch");
  m["exec.batch_nodes_per_ref"] = refs > 0 ? nodes / refs : 0.0;
  m["exec.extend_ms_p50"] = rec.MedianUs("exec.extend") * 1e-3;
  m["core.perturb_us_p50"] = rec.MedianUs("core.perturb");
  m["core.answer_us_p50"] = rec.MedianUs("core.answer");
  m["core.self_us_p50"] = rec.SelfUs("core.answer", "exec.scan");
  m["rel_error_p50"] = Median(errors);
  m["core.batch_answer_us_p50"] = rec.MedianUs("core.batch_answer");
  m["service.submit_us_p50"] = rec.MedianUs("service.submit");
  m["service.self_us_p50"] = Median(service_self_ns) * 1e-3;
  m["service.replay_us_p50"] = rec.MedianUs("service.replay");
  m["service.workload_us_p50"] = rec.MedianUs("service.workload");
  m["service.ingest_ms_p50"] = rec.MedianUs("service.ingest") * 1e-3;
  m["service.queue_wait_us_p50"] = DeltaP50Us(stages_before, stages_after, "queue_wait");
  m["storage.append_ms_p50"] = rec.MedianUs("storage.append") * 1e-3;
  m["net.round_trip_us_p50"] = rec.MedianUs("net.round_trip");
  const char* service_call = inputs.request == RequestKind::kFreshQuery
                                 ? "service.submit"
                             : inputs.request == RequestKind::kReplayQuery
                                 ? "service.replay"
                                 : "service.workload";
  m["net.self_us_p50"] = rec.SelfUs("net.round_trip", service_call);
  m["net.unattributed_us_p50"] =
      DeltaP50Us(route_before, route_after, "ok") - stage_sum_us;
  return m;
}

}  // namespace dpstarj::perfbench
