// dpsj_perfbench — the end-to-end benchmark of the DP star-join service.
//
// One run generates an SSB catalog, starts the full stack in this process
// (net::HttpServer → service::QueryService → core → exec), drives one named
// workload against it over loopback TCP for a fixed window, checks every
// answer, and prints one JSON result line last on stdout:
//
//   dpsj_perfbench --workload explore --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the window half
// untraced and half traced, then the layer waterfall (waterfall.h), and
// reports the per-layer metrics. perfbench/README.md documents every metric,
// the workloads, and why each exists; perfbench/run.py builds and runs this.

#include <malloc.h>
#include <sys/prctl.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/cpu.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "exec/kernels/kernels.h"
#include "exec/star_join_executor.h"
#include "inputs.h"
#include "measure.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/service_api.h"
#include "obs/metrics.h"
#include "query/binder.h"
#include "service/query_service.h"
#include "ssb/ssb_generator.h"
#include "waterfall.h"

using namespace dpstarj;
using namespace dpstarj::perfbench;

namespace {

constexpr char kTenant[] = "bench";
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Unmeasured warm-up at the start of every window.
constexpr int64_t kWarmupNs = 1'000'000'000;
/// Explore answers whose error against the exact answer is measured.
constexpr size_t kErrorSample = 256;

/// \brief A workload's fixed shape. The open-loop and ingest rates are part
/// of the benchmark definition and recorded in the output.
struct Profile {
  std::string name;
  double scale_factor = 0.0;
  int connections = 0;       ///< query (or batch) connections
  double rate_qps = 0.0;     ///< dashboard open-loop arrival rate
  double ingest_rate = 0.0;  ///< report_stream ingest batches per second
};

Result<Profile> ProfileFor(const std::string& name, bool tiny) {
  Profile p;
  p.name = name;
  if (name == "explore") {
    // sf 0.15: Lineorder (900k rows, 58 MB) and the nine templates' plan
    // scaffolds (~190 MB) are far larger than L3, yet all nine scaffolds fit
    // the plan cache's default 256 MB budget, so every request hits it.
    p.scale_factor = 0.15;
    p.connections = 4;
  } else if (name == "dashboard") {
    p.scale_factor = 0.1;
    p.connections = 4;
    p.rate_qps = 2000.0;
  } else if (name == "report_stream") {
    p.scale_factor = 0.1;
    p.connections = 3;
    p.ingest_rate = 20.0;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (explore, dashboard, report_stream)");
  }
  if (tiny) p.scale_factor = 0.01;
  return p;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

Result<Options> ParseOptions(int argc, char** argv) {
  Options o;
  bool has_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t n = 0;
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (value == nullptr) return Status::InvalidArgument(arg + " needs a value");
    ++i;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed" && ParseUnsigned(value, &n)) {
      o.seed = n;
      has_seed = true;
    } else if (arg == "--seconds" && ParseUnsigned(value, &n) && n >= 1 && n <= 600) {
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && (std::strcmp(value, "0") == 0 ||
                                    std::strcmp(value, "1") == 0)) {
      o.trace = value[0] == '1';
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      return Status::InvalidArgument("bad argument " + arg + " " + value);
    }
  }
  if (o.workload.empty() || !has_seed || o.seconds <= 0.0) {
    return Status::InvalidArgument(
        "usage: dpsj_perfbench --workload W --seed N --seconds S --trace 0|1 "
        "[--spans PATH] [--tiny]");
  }
  return o;
}

double StatusMiB(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0) return std::atof(line.c_str() + len) / 1024.0;
  }
  return 0.0;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

// ----------------------------------------------------------------- stack ----

/// \brief One running service: catalog, QueryService, HttpServer on an
/// ephemeral loopback port — configured like dpstarj-server's defaults.
/// Members are destroyed in reverse order: the server stops (draining its
/// requests) before the service drains its pool, and the catalog goes last.
struct Stack {
  std::unique_ptr<storage::Catalog> catalog;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::HttpServer> server;
  double generate_s = 0.0;
  double setup_s = 0.0;
};

Status ExpectOk(const Result<net::HttpResponse>& r, int status, const char* what) {
  if (!r.ok()) return Status::IoError(Format("%s: %s", what, r.status().ToString().c_str()));
  if (r->status != status) {
    return Status::Internal(Format("%s: HTTP %d %s", what, r->status, r->body.c_str()));
  }
  return Status::OK();
}

/// Cold start to ready: catalog, service, server, tenant, and one answer per
/// query template of the workload.
Result<std::unique_ptr<Stack>> StartStack(const Profile& profile, uint64_t seed,
                                          const std::vector<QuerySpec>& warm_queries,
                                          const std::vector<Batch>& warm_batches) {
  auto stack = std::make_unique<Stack>();
  const int64_t start = NowNs();
  ssb::SsbOptions ssb_options;
  ssb_options.scale_factor = profile.scale_factor;
  ssb_options.seed = seed;
  DPSTARJ_ASSIGN_OR_RETURN(storage::Catalog catalog, ssb::GenerateSsb(ssb_options));
  stack->catalog = std::make_unique<storage::Catalog>(std::move(catalog));
  stack->generate_s = static_cast<double>(NowNs() - start) * 1e-9;

  stack->metrics = std::make_shared<obs::MetricsRegistry>();
  service::ServiceOptions service_options;
  service_options.num_engines = 4;
  service_options.queue_capacity = 256;
  service_options.metrics = stack->metrics;
  stack->service =
      std::make_unique<service::QueryService>(stack->catalog.get(), service_options);
  net::ServerOptions server_options;
  server_options.handler_threads = 8;
  server_options.metrics = stack->metrics.get();
  stack->server = std::make_unique<net::HttpServer>(
      net::MakeServiceRouter(stack->service.get()), server_options);
  DPSTARJ_RETURN_NOT_OK(stack->server->Start());

  net::Client client(stack->server->host(), stack->server->port());
  DPSTARJ_RETURN_NOT_OK(ExpectOk(
      client.Post("/v1/tenants", Format("{\"tenant\":\"%s\",\"epsilon\":1e9}", kTenant)),
      201, "POST /v1/tenants"));
  for (const QuerySpec& q : warm_queries) {
    DPSTARJ_RETURN_NOT_OK(
        ExpectOk(client.Post("/v1/query", QueryBody(q, kTenant)), 200, "warm-up query"));
  }
  for (const Batch& b : warm_batches) {
    DPSTARJ_RETURN_NOT_OK(
        ExpectOk(client.Post("/v1/workload", BatchBody(b, kTenant)), 200, "warm-up batch"));
  }
  stack->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return stack;
}

// --------------------------------------------------------- server state ----

/// The counters a window is judged by, read over the wire.
struct ServerCounters {
  double spent = 0.0;
  double spends = 0.0;
  double refunds = 0.0;
  double cache_hits = 0.0;
  double plan_hits = 0.0;
  double plan_misses = 0.0;
  double plan_extends = 0.0;
  double rejected_overload = 0.0;
  std::string profiler_mode;
};

Result<ServerCounters> ReadCounters(net::Client* client) {
  ServerCounters c;
  auto account = client->Get(std::string("/v1/tenants/") + kTenant);
  DPSTARJ_RETURN_NOT_OK(ExpectOk(account, 200, "GET /v1/tenants"));
  DPSTARJ_ASSIGN_OR_RETURN(net::Json a, net::Client::ParseBody(*account));
  DPSTARJ_ASSIGN_OR_RETURN(c.spent, a.GetNumber("spent"));
  DPSTARJ_ASSIGN_OR_RETURN(c.spends, a.GetNumber("spends"));
  DPSTARJ_ASSIGN_OR_RETURN(c.refunds, a.GetNumber("refunds"));
  auto stats = client->Get("/v1/stats");
  DPSTARJ_RETURN_NOT_OK(ExpectOk(stats, 200, "GET /v1/stats"));
  DPSTARJ_ASSIGN_OR_RETURN(net::Json s, net::Client::ParseBody(*stats));
  const net::Json* answers = s.Find("answer_cache");
  const net::Json* plans = s.Find("plan_cache");
  if (answers == nullptr || plans == nullptr) {
    return Status::Internal("/v1/stats lacks cache accounting");
  }
  DPSTARJ_ASSIGN_OR_RETURN(c.cache_hits, answers->GetNumber("hits"));
  DPSTARJ_ASSIGN_OR_RETURN(c.plan_hits, plans->GetNumber("hits"));
  DPSTARJ_ASSIGN_OR_RETURN(c.plan_misses, plans->GetNumber("misses"));
  DPSTARJ_ASSIGN_OR_RETURN(c.plan_extends, plans->GetNumber("extends"));
  DPSTARJ_ASSIGN_OR_RETURN(c.rejected_overload, s.GetNumber("rejected_overload"));
  DPSTARJ_ASSIGN_OR_RETURN(c.profiler_mode, s.GetString("profiler_mode"));
  return c;
}

// --------------------------------------------------------------- window ----

/// One request of the timed window, as the client saw it.
struct Request {
  uint64_t index = 0;    ///< input index (explore/report) or arrival index
  /// When it was due: its arrival time (open loop), or the previous
  /// response on its connection (closed loop).
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// Client-observed: from due (open loop) or from sent (closed loop).
  double latency_ms = 0.0;
  int status = 0;        ///< HTTP status, 0 on a transport failure
  bool shape_ok = false;
  int answered = 0;      ///< queries answered 200 (a batch counts each)
  int fresh = 0;         ///< ...of which drawn fresh (not replayed)
  double fresh_epsilon = 0.0;  ///< ε of the fresh answers
  std::string body;      ///< kept for sampled explore answers only
};

struct IngestAck {
  uint64_t index = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = 0;
  std::string table;
  double appended = 0, rows_total = 0, version = 0;
  bool measured = false;  ///< due after the window's warm-up
};

/// Everything a run's windows produced, appended to across windows.
struct WindowLog {
  std::vector<Request> requests;
  std::vector<IngestAck> ingests;
  std::vector<Span> spans;
  std::mutex mu;
  uint64_t next_input = 0;   ///< next explore index / report batch index
  uint64_t next_ingest = 0;  ///< next ingest batch index
  uint64_t next_arrival = 0; ///< dashboard requests sent so far
};

/// Cheap shape check of a /v1/query answer without a full parse.
bool QueryShapeOk(const std::string& body, bool grouped) {
  return grouped ? body.find("\"grouped\":true") != std::string::npos &&
                       body.find("\"groups\":[") != std::string::npos
                 : body.find("\"grouped\":false") != std::string::npos &&
                       body.find("\"scalar\":") != std::string::npos;
}

/// Waits until `due_ns`: sleeps to within 50 µs, then spins, so open-loop
/// arrivals are not late by a wake-up, while the generator's threads leave
/// the cores to the server between requests.
void WaitUntil(int64_t due_ns) {
  const int64_t slack = 50'000;
  const int64_t now = NowNs();
  if (due_ns - now > slack) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - slack));
  }
  while (NowNs() < due_ns) {
  }
}

/// Generator threads sleep with the finest timer slack the kernel allows
/// (the default 50 µs would make every open-loop arrival late).
void FineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Sampled explore answers keep their body for the error check.
bool InErrorSample(uint64_t seed, uint64_t index) {
  return ((index * 0x9E3779B97F4A7C15ULL) ^ seed) % 8 == 0;
}

/// A window's figures. The end-to-end metrics are medians over its
/// one-second sub-windows, so a burst of interference on a shared host moves
/// one sub-window, not the run.
struct WindowResult {
  std::vector<double> qps;             ///< per sub-window: answered / s
  std::vector<double> latency_p50_ms;  ///< per sub-window
  std::vector<double> latency_p99_ms;  ///< per sub-window
  std::vector<double> latency_ms;      ///< every request; +inf when failed
  std::vector<double> late_ms;         ///< generator lateness per request
};

/// A quantile of latencies where a failed request (+inf) missed every limit:
/// reported as `limit_ms`, the length of the interval it was lost in.
double LatencyQuantile(const std::vector<double>& latency_ms, double q, double limit_ms) {
  const double v = Quantile(latency_ms, q);
  return std::isfinite(v) ? v : limit_ms;
}

/// Runs one timed window of `seconds` against `stack`. Spans of every
/// request are recorded when `traced`.
WindowResult RunWindow(const Profile& profile, uint64_t seed, double seconds,
                       bool traced, Stack* stack, const CatalogShape& shape,
                       const std::vector<QuerySpec>& dashboard, WindowLog* log) {
  const std::string host = stack->server->host();
  const uint16_t port = stack->server->port();
  const int64_t start = NowNs() + 5'000'000;  // let every client connect first
  // One warm-up second first: its requests are checked like any other but
  // kept out of the metrics, so connection set-up and first-touch costs do
  // not land in the measured seconds.
  const int64_t measured = start + kWarmupNs;
  const int64_t end = measured + static_cast<int64_t>(seconds * 1e9);
  const size_t first_request = log->requests.size();
  const size_t first_ingest = log->ingests.size();
  // The open-loop arrival schedule and its cursor; declared before the
  // threads that read them, which are joined below.
  const std::vector<double> due =
      profile.rate_qps > 0.0
          ? PoissonSchedule(seed + log->next_arrival, profile.rate_qps,
                            seconds + static_cast<double>(kWarmupNs) * 1e-9)
          : std::vector<double>();
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;

  auto finish = [&](Request r) {
    std::lock_guard<std::mutex> lock(log->mu);
    if (traced) {
      log->spans.push_back({profile.name == "report_stream" ? "client.batch"
                                                             : "client.query",
                            r.sent_ns, r.done_ns, "", r.index});
    }
    log->requests.push_back(std::move(r));
  };
  auto claim = [&](uint64_t* counter) {
    std::lock_guard<std::mutex> lock(log->mu);
    return (*counter)++;
  };

  if (profile.name == "explore") {
    for (int c = 0; c < profile.connections; ++c) {
      threads.emplace_back([&] {
        FineTimerSlack();
        net::Client client(host, port);
        WaitUntil(start);
        int64_t due = start;
        while (NowNs() < end) {
          Request r;
          r.index = claim(&log->next_input);
          const QuerySpec q = ExploreQuery(seed, r.index);
          const std::string body = QueryBody(q, kTenant);
          r.due_ns = due;
          r.sent_ns = NowNs();
          auto resp = client.Post("/v1/query", body);
          due = r.done_ns = NowNs();
          r.latency_ms = static_cast<double>(r.done_ns - r.sent_ns) * 1e-6;
          if (resp.ok()) {
            r.status = resp->status;
            if (r.status == 200) {
              r.shape_ok = QueryShapeOk(resp->body, q.grouped);
              r.answered = r.fresh = 1;
              r.fresh_epsilon = q.epsilon;
              if (InErrorSample(seed, r.index)) r.body = std::move(resp->body);
            }
          }
          finish(std::move(r));
        }
      });
    }
  } else if (profile.name == "dashboard") {
    for (int c = 0; c < profile.connections; ++c) {
      threads.emplace_back([&] {
        FineTimerSlack();
        net::Client client(host, port);
        for (;;) {
          const size_t j = next.fetch_add(1);
          if (j >= due.size()) break;
          Request r;
          r.index = claim(&log->next_arrival);
          const QuerySpec& q = dashboard[r.index % dashboard.size()];
          const std::string body = QueryBody(q, kTenant);
          r.due_ns = start + static_cast<int64_t>(due[j] * 1e9);
          WaitUntil(r.due_ns);
          r.sent_ns = NowNs();
          auto resp = client.Post("/v1/query", body);
          r.done_ns = NowNs();
          r.latency_ms = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
          if (resp.ok()) {
            r.status = resp->status;
            if (r.status == 200) {
              r.shape_ok = QueryShapeOk(resp->body, q.grouped);
              r.answered = 1;
            }
          }
          finish(std::move(r));
        }
      });
    }
  } else {
    for (int c = 0; c < profile.connections; ++c) {
      threads.emplace_back([&] {
        FineTimerSlack();
        net::Client client(host, port);
        WaitUntil(start);
        int64_t due = start;
        while (NowNs() < end) {
          Request r;
          r.index = claim(&log->next_input);
          const Batch batch = ReportBatch(seed, r.index);
          const std::string body = BatchBody(batch, kTenant);
          r.due_ns = due;
          r.sent_ns = NowNs();
          auto resp = client.Post("/v1/workload", body);
          due = r.done_ns = NowNs();
          r.latency_ms = static_cast<double>(r.done_ns - r.sent_ns) * 1e-6;
          if (resp.ok()) {
            r.status = resp->status;
            auto parsed = net::Client::ParseBody(*resp);
            const net::Json* queries =
                parsed.ok() ? parsed->Find("queries") : nullptr;
            r.shape_ok = r.status == 200 && queries != nullptr &&
                         queries->items().size() == batch.size();
            for (size_t i = 0; r.shape_ok && i < batch.size(); ++i) {
              const net::Json& qo = queries->items()[i];
              const net::Json* ok = qo.Find("ok");
              const net::Json* cached = qo.Find("cached");
              if (ok == nullptr || !ok->AsBool() || cached == nullptr ||
                  qo.Find("scalar") == nullptr) {
                r.shape_ok = false;
                break;
              }
              ++r.answered;
              if (!cached->AsBool()) {
                ++r.fresh;
                r.fresh_epsilon += batch[i].epsilon;
              }
            }
          }
          finish(std::move(r));
        }
      });
    }
    // The writer: fixed-rate ingest on its own connection.
    threads.emplace_back([&] {
      FineTimerSlack();
      net::Client client(host, port);
      const int64_t interval = static_cast<int64_t>(1e9 / profile.ingest_rate);
      for (int64_t due_ns = start; due_ns < end; due_ns += interval) {
        IngestAck ack;
        ack.index = claim(&log->next_ingest);
        const IngestBatch batch = IngestBatchAt(seed, ack.index, shape);
        const std::string body = batch.Body();
        ack.due_ns = due_ns;
        ack.table = batch.table;
        WaitUntil(due_ns);
        ack.sent_ns = NowNs();
        auto resp = client.Post("/v1/ingest", body);
        ack.done_ns = NowNs();
        if (resp.ok()) {
          ack.status = resp->status;
          auto parsed = net::Client::ParseBody(*resp);
          if (ack.status == 200 && parsed.ok()) {
            ack.appended = parsed->GetNumber("appended").ValueOr(-1);
            ack.rows_total = parsed->GetNumber("rows_total").ValueOr(-1);
            ack.version = parsed->GetNumber("version").ValueOr(-1);
          }
        }
        std::lock_guard<std::mutex> lock(log->mu);
        log->ingests.push_back(std::move(ack));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Requests belong to the sub-window they became due in; answers count
  // toward the sub-window they completed in.
  const size_t subs = std::max<size_t>(1, static_cast<size_t>(seconds));
  std::vector<std::vector<double>> sub_latency(subs);
  std::vector<double> sub_answered(subs, 0.0);
  WindowResult w;
  for (size_t i = first_request; i < log->requests.size(); ++i) {
    const Request& r = log->requests[i];
    const bool ok = r.status == 200 && r.shape_ok;
    const double latency = ok ? r.latency_ms : std::numeric_limits<double>::infinity();
    const int64_t done_sub = (r.done_ns - measured) / 1'000'000'000;
    if (r.done_ns >= measured && static_cast<size_t>(done_sub) < subs) {
      sub_answered[static_cast<size_t>(done_sub)] += r.answered;
    }
    if (r.due_ns < measured) continue;
    w.latency_ms.push_back(latency);
    w.late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
    const int64_t due_sub = (r.due_ns - measured) / 1'000'000'000;
    if (static_cast<size_t>(due_sub) < subs) {
      sub_latency[static_cast<size_t>(due_sub)].push_back(latency);
    }
  }
  for (size_t i = first_ingest; i < log->ingests.size(); ++i) {
    IngestAck& a = log->ingests[i];
    a.measured = a.due_ns >= measured;
    if (!a.measured) continue;
    w.late_ms.push_back(static_cast<double>(a.sent_ns - a.due_ns) * 1e-6);
  }
  for (size_t k = 0; k < subs; ++k) {
    if (sub_latency[k].empty()) continue;
    w.qps.push_back(sub_answered[k]);
    w.latency_p50_ms.push_back(LatencyQuantile(sub_latency[k], 0.50, 1e3));
    w.latency_p99_ms.push_back(LatencyQuantile(sub_latency[k], 0.99, 1e3));
  }
  return w;
}

// --------------------------------------------------------------- checks ----

/// Collects failed output checks; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void Expect(const Status& st, const std::string& what) {
    if (!st.ok()) failures.push_back(what + ": " + st.ToString());
  }
};

/// Relative errors (%) of the sampled explore answers against exact answers
/// from the same catalog, computed after the window.
Result<std::vector<double>> ExploreErrors(const storage::Catalog& catalog,
                                          uint64_t seed,
                                          const std::vector<Request>& requests,
                                          Checks* checks) {
  std::vector<const Request*> sample;
  for (const Request& r : requests) {
    if (!r.body.empty()) sample.push_back(&r);
  }
  if (sample.size() > kErrorSample) sample.resize(kErrorSample);
  query::Binder binder(&catalog);
  exec::ExecutorOptions options;
  options.exec_threads = 0;  // the service is idle: use every core
  exec::StarJoinExecutor executor(options);
  std::vector<double> errors;
  size_t noisy = 0;
  for (const Request* r : sample) {
    const QuerySpec q = ExploreQuery(seed, r->index);
    DPSTARJ_ASSIGN_OR_RETURN(net::Json body, net::Json::Parse(r->body));
    const net::Json* value = body.Find(q.grouped ? "total" : "scalar");
    checks->Expect(value != nullptr && value->is_number(),
                   "explore answer without a numeric value");
    if (value == nullptr || !value->is_number()) continue;
    DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder.BindSql(q.sql));
    DPSTARJ_ASSIGN_OR_RETURN(exec::QueryResult exact, executor.Execute(bound));
    const double truth = exact.Total();
    if (value->AsNumber() != truth) ++noisy;
    errors.push_back(RelativeErrorPercent(value->AsNumber(), truth));
  }
  checks->Expect(!errors.empty(), "no explore answer to measure error against");
  // PM perturbs every predicate: answers equal to the exact one everywhere
  // would mean no noise was applied.
  checks->Expect(noisy > 0, "every sampled explore answer equals the exact answer");
  return errors;
}

// --------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The per-layer metrics of a traced run, in output order (BENCHMARK.json
/// lists the same names and units).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"ssb.generate_s", "s"},
    {"query.bind_us_p50", "us"},
    {"query.canonical_us_p50", "us"},
    {"exec.compile_ms_p50", "ms"},
    {"exec.scan_us_p50", "us"},
    {"exec.scan_rows_per_s", "1/s"},
    {"exec.cycles_per_row", "count"},
    {"exec.instr_per_row", "count"},
    {"exec.batch_us_p50", "us"},
    {"exec.batch_nodes_per_ref", "ratio"},
    {"exec.extend_ms_p50", "ms"},
    {"exec.plan_cache_hit_share", "ratio"},
    {"exec.plan_extends", "count"},
    {"exec.plan_recompiles", "count"},
    {"core.perturb_us_p50", "us"},
    {"core.answer_us_p50", "us"},
    {"core.self_us_p50", "us"},
    {"core.batch_answer_us_p50", "us"},
    {"service.submit_us_p50", "us"},
    {"service.self_us_p50", "us"},
    {"service.queue_wait_us_p50", "us"},
    {"service.replay_us_p50", "us"},
    {"service.answer_cache_hit_share", "ratio"},
    {"service.refunds_per_answer", "ratio"},
    {"service.workload_us_p50", "us"},
    {"service.ingest_ms_p50", "ms"},
    {"service.rejected_overload", "count"},
    {"storage.append_ms_p50", "ms"},
    {"net.round_trip_us_p50", "us"},
    {"net.self_us_p50", "us"},
    {"net.unattributed_us_p50", "us"},
    {"bench.late_ms_p99", "ms"},
    {"bench.trace_overhead_share", "ratio"},
    {"rel_error_p50", "%"},
    {"eps_per_answer", "eps"},
    {"failed_share", "ratio"},
    {"ingest_p50_ms", "ms"},
    {"ingest_p99_ms", "ms"},
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    out += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  return out + "}";
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write spans to " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":\"%s\",\"request_id\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent.c_str(),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0 ? Status::OK() : Status::IoError("closing " + path);
}

int Run(const Options& options, const Profile& profile) {
  const uint64_t seed = options.seed;

  // ---- set-up, several times; the last stack serves the window ----------
  const std::vector<QuerySpec> dashboard = DashboardQueries(seed);
  std::vector<QuerySpec> warm_queries;
  std::vector<Batch> warm_batches;
  if (profile.name == "explore") warm_queries = TemplateWarmups();
  if (profile.name == "dashboard") warm_queries = dashboard;
  if (profile.name == "report_stream") warm_batches = {ReportWarmupBatch()};
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    // Hand the torn-down stack's memory back to the kernel, so each set-up
    // starts from the same resident size and peak_rss_mb does not depend on
    // how the allocator kept earlier set-ups' pages.
    malloc_trim(0);
    auto started = StartStack(profile, seed, warm_queries, warm_batches);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", started.status().ToString().c_str());
      return 1;
    }
    stack = std::move(*started);
    setup_s.push_back(stack->setup_s);
    generate_s.push_back(stack->generate_s);
  }
  auto shape_or = CatalogShape::Of(*stack->catalog);
  DPSTARJ_CHECK(shape_or.ok(), "catalog shape");
  const CatalogShape shape = *shape_or;
  net::Client control(stack->server->host(), stack->server->port());

  // ---- the timed window(s) -----------------------------------------------
  Checks checks;
  auto before = ReadCounters(&control);
  if (!before.ok()) {
    std::fprintf(stderr, "counters: %s\n", before.status().ToString().c_str());
    return 1;
  }
  WindowLog log;
  WindowResult untraced, traced;
  if (options.trace) {
    untraced = RunWindow(profile, seed, options.seconds / 2, false, stack.get(),
                         shape, dashboard, &log);
    traced = RunWindow(profile, seed, options.seconds / 2, true, stack.get(), shape,
                       dashboard, &log);
  } else {
    untraced = RunWindow(profile, seed, options.seconds, false, stack.get(), shape,
                         dashboard, &log);
  }
  // The served stack's high-water mark: set-up plus window, before the
  // checks below allocate their own working memory.
  const double peak_rss_mb = StatusMiB("VmHWM:");
  auto after = ReadCounters(&control);
  if (!after.ok()) {
    std::fprintf(stderr, "counters: %s\n", after.status().ToString().c_str());
    return 1;
  }

  // ---- output checks ------------------------------------------------------
  uint64_t attempted = 0, failed = 0, answered = 0, fresh = 0;
  double fresh_epsilon = 0.0;
  for (const Request& r : log.requests) {
    ++attempted;
    if (r.status != 200 || !r.shape_ok) ++failed;
    checks.Expect(r.status != 200 || r.shape_ok,
                  Format("request %llu: response shape does not match its query",
                         static_cast<unsigned long long>(r.index)));
    answered += static_cast<uint64_t>(r.answered);
    fresh += static_cast<uint64_t>(r.fresh);
    fresh_epsilon += r.fresh_epsilon;
  }
  const double charged = after->spent - before->spent;
  // ε values are dyadic rationals, so the ledger's sum is exact.
  checks.Expect(charged == fresh_epsilon,
                Format("ledger charged eps %.17g but fresh answers cost %.17g", charged,
                       fresh_epsilon));
  const double cache_hits = after->cache_hits - before->cache_hits;
  if (profile.name == "explore") {
    checks.Expect(cache_hits == 0.0, Format("explore replayed %.0f answers", cache_hits));
  }
  if (profile.name == "dashboard") {
    checks.Expect(charged == 0.0, "dashboard replays charged epsilon");
    checks.Expect(cache_hits == static_cast<double>(answered),
                  Format("dashboard: %.0f cache hits for %llu answers", cache_hits,
                         static_cast<unsigned long long>(answered)));
  }
  std::vector<double> ingest_ms;
  if (profile.name == "report_stream") {
    std::map<std::string, double> version, rows;
    rows["Lineorder"] = static_cast<double>(shape.lineorder);
    rows["Customer"] = static_cast<double>(shape.customer);
    for (const IngestAck& ack : log.ingests) {
      ++attempted;
      if (ack.status != 200) {
        ++failed;
        if (ack.measured) ingest_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      if (ack.measured) {
        ingest_ms.push_back(static_cast<double>(ack.done_ns - ack.due_ns) * 1e-6);
      }
      const IngestBatch batch = IngestBatchAt(seed, ack.index, shape);
      rows[ack.table] += static_cast<double>(batch.rows.size());
      checks.Expect(ack.appended == static_cast<double>(batch.rows.size()),
                    "ingest ack appended count differs from the batch");
      checks.Expect(ack.rows_total == rows[ack.table],
                    Format("ingest %s rows_total %.0f, expected base plus appended %.0f",
                           ack.table.c_str(), ack.rows_total, rows[ack.table]));
      checks.Expect(ack.version > version[ack.table],
                    Format("ingest %s version %.0f not above %.0f", ack.table.c_str(),
                           ack.version, version[ack.table]));
      version[ack.table] = ack.version;
    }
    checks.Expect(CheckReportBatches(*stack->catalog, seed, log.next_input),
                  "report_stream batches");
    checks.Expect(CheckIngestKeys(*stack->catalog, seed, log.next_ingest, shape),
                  "ingest keys");
  }
  std::vector<double> errors;
  if (profile.name == "explore") {
    checks.Expect(CheckExploreDistinct(*stack->catalog, seed, log.next_input),
                  "explore keys");
    auto e = ExploreErrors(*stack->catalog, seed, log.requests, &checks);
    checks.Expect(e.status(), "explore error sample");
    if (e.ok()) errors = std::move(*e);
  }

  // ---- metrics --------------------------------------------------------------
  WindowResult all = untraced;
  for (auto [to, from] : {std::pair{&all.qps, &traced.qps},
                          {&all.latency_p50_ms, &traced.latency_p50_ms},
                          {&all.latency_p99_ms, &traced.latency_p99_ms},
                          {&all.latency_ms, &traced.latency_ms},
                          {&all.late_ms, &traced.late_ms}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  const double eps_per_answer =
      answered > 0 ? charged / static_cast<double>(answered) : 0.0;
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  const double rel_error = errors.empty() ? 0.0 : Median(errors);

  std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", Median(all.qps), "1/s"},
      {"latency_p50_ms", Median(all.latency_p50_ms), "ms"},
      {"latency_p99_ms", Median(all.latency_p99_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };

  std::vector<Metric> per_layer;
  if (options.trace) {
    WaterfallInputs inputs;
    if (profile.name == "explore") {
      inputs.request = RequestKind::kFreshQuery;
      // Indices the window never reached (it stays far below 2^17).
      for (uint64_t j = 0; j < 96; ++j) {
        inputs.queries.push_back(ExploreQuery(seed, kExploreIndexLimit - 1 - j));
      }
      for (uint64_t k = 0; k < 6; ++k) {
        Batch b;
        for (uint64_t i = 0; i < 16; ++i) {
          b.push_back(ExploreQuery(seed, kExploreIndexLimit - 1000 - k * 16 - i));
        }
        inputs.batches.push_back(std::move(b));
      }
    } else if (profile.name == "dashboard") {
      inputs.request = RequestKind::kReplayQuery;
      inputs.replays = dashboard;
      for (int rep = 0; rep < 6; ++rep) {
        inputs.queries.insert(inputs.queries.end(), dashboard.begin(), dashboard.end());
      }
      inputs.batches.push_back(dashboard);
      // Each repetition gets its own ε so every call is fresh where it must be.
      for (size_t j = 0; j < inputs.queries.size(); ++j) {
        inputs.queries[j].epsilon += static_cast<double>(1 + j / dashboard.size()) * 0x1.0p-20;
      }
      for (int rep = 1; rep < 6; ++rep) {
        Batch b = dashboard;
        for (QuerySpec& q : b) q.epsilon += static_cast<double>(rep) * 0x1.0p-16;
        inputs.batches.push_back(std::move(b));
      }
    } else {
      inputs.request = RequestKind::kBatch;
      for (uint64_t k = 0; k < 6; ++k) {
        inputs.batches.push_back(ReportBatch(seed, kReportIndexLimit - 1 - k));
      }
      for (uint64_t k = 0; k < 6; ++k) {
        const Batch b = ReportBatch(seed, kReportIndexLimit - 100 - k);
        inputs.queries.insert(inputs.queries.end(), b.begin(), b.end());
      }
    }
    for (uint64_t i = 1'000'000; inputs.ingests.size() < 24; ++i) {
      IngestBatch b = IngestBatchAt(seed, i, shape);
      if (b.table == "Lineorder") inputs.ingests.push_back(std::move(b));
    }
    WaterfallTarget target{stack->catalog.get(), stack->service.get(),
                           stack->server->host(), stack->server->port(), kTenant};
    std::vector<double> wire_ingest_ms;
    auto layers = RunWaterfall(target, inputs, seed, &log.spans, &wire_ingest_ms);
    if (!layers.ok()) {
      std::fprintf(stderr, "waterfall failed: %s\n", layers.status().ToString().c_str());
      return 1;
    }
    if (ingest_ms.empty()) ingest_ms = wire_ingest_ms;
    const double plan_lookups = (after->plan_hits - before->plan_hits) +
                                (after->plan_misses - before->plan_misses);
    const double spends = after->spends - before->spends;
    double overhead = 0.0;
    if (profile.name == "dashboard") {
      overhead = Median(traced.latency_p50_ms) / Median(untraced.latency_p50_ms) - 1.0;
    } else {
      overhead = 1.0 - Median(traced.qps) / Median(untraced.qps);
    }
    MetricMap& l = *layers;
    l["ssb.generate_s"] = Median(generate_s);
    l["exec.plan_cache_hit_share"] =
        plan_lookups > 0 ? (after->plan_hits - before->plan_hits) / plan_lookups : 0.0;
    l["exec.plan_extends"] = after->plan_extends - before->plan_extends;
    l["exec.plan_recompiles"] = after->plan_misses - before->plan_misses;
    l["service.answer_cache_hit_share"] =
        answered > 0 ? cache_hits / static_cast<double>(answered) : 0.0;
    l["service.refunds_per_answer"] =
        spends > 0 ? (after->refunds - before->refunds) / spends : 0.0;
    l["service.rejected_overload"] = after->rejected_overload - before->rejected_overload;
    l["bench.late_ms_p99"] = Quantile(all.late_ms, 0.99);
    l["bench.trace_overhead_share"] = overhead;
    // Explore measures its served answers; the other workloads keep the
    // waterfall's, core.answer on their own queries.
    if (profile.name == "explore") l["rel_error_p50"] = rel_error;
    l["eps_per_answer"] = eps_per_answer;
    l["failed_share"] = failed_share;
    l["ingest_p50_ms"] = LatencyQuantile(ingest_ms, 0.50, options.seconds * 1e3);
    l["ingest_p99_ms"] = LatencyQuantile(ingest_ms, 0.99, options.seconds * 1e3);
    for (const auto& [name, unit] : kPerLayer) {
      auto it = l.find(name);
      const double value = it == l.end() ? std::numeric_limits<double>::quiet_NaN()
                                         : it->second;
      checks.Expect(std::isfinite(value), std::string("per-layer metric ") + name +
                                              " not measured");
      per_layer.push_back({name, value, unit});
    }
    if (!options.spans_path.empty()) {
      checks.Expect(WriteSpans(options.spans_path, log.spans), "spans");
    }
  }

  // ---- provenance + a readable report, then the result line last ----------
  const CpuInfo& cpu = HostCpu();
  net::Json prov = net::Json::Object();
  prov.Set("workload", net::Json::Str(profile.name));
  prov.Set("seed", net::Json::Number(static_cast<double>(seed)));
  prov.Set("seconds", net::Json::Number(options.seconds));
  prov.Set("trace", net::Json::Bool(options.trace));
  prov.Set("scale_factor", net::Json::Number(profile.scale_factor));
  prov.Set("connections", net::Json::Number(profile.connections));
  prov.Set("open_loop_rate_qps", net::Json::Number(profile.rate_qps));
  prov.Set("ingest_rate_per_s", net::Json::Number(profile.ingest_rate));
  prov.Set("nproc", net::Json::Number(cpu.cores));
  prov.Set("kernel_isa", net::Json::Str(exec::kernels::ActiveKernels().name));
  prov.Set("l2_bytes", net::Json::Number(static_cast<double>(cpu.l2_bytes)));
  prov.Set("l3", net::Json::Str(
                     ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size")));
  prov.Set("profiler_mode", net::Json::Str(after->profiler_mode));
  prov.Set("build_type", net::Json::Str(common::GetBuildInfo().build_type));
  prov.Set("compiler", net::Json::Str(common::GetBuildInfo().compiler));
  net::Json extra = net::Json::Object();
  extra.Set("answered", net::Json::Number(static_cast<double>(answered)));
  extra.Set("fresh", net::Json::Number(static_cast<double>(fresh)));
  extra.Set("eps_per_answer", net::Json::Number(eps_per_answer));
  extra.Set("failed_share", net::Json::Number(failed_share));
  extra.Set("rel_error_p50", net::Json::Number(rel_error));
  extra.Set("rel_error_samples", net::Json::Number(static_cast<double>(errors.size())));
  extra.Set("answer_cache_hits", net::Json::Number(cache_hits));
  if (!ingest_ms.empty()) {
    extra.Set("ingest_p50_ms", net::Json::Number(LatencyQuantile(ingest_ms, 0.5, options.seconds * 1e3)));
    extra.Set("ingest_p99_ms", net::Json::Number(LatencyQuantile(ingest_ms, 0.99, options.seconds * 1e3)));
  }
  extra.Set("latency_samples", net::Json::Number(static_cast<double>(all.latency_ms.size())));
  extra.Set("window_latency_p50_ms",
            net::Json::Number(LatencyQuantile(all.latency_ms, 0.50, options.seconds * 1e3)));
  extra.Set("window_latency_p99_ms",
            net::Json::Number(LatencyQuantile(all.latency_ms, 0.99, options.seconds * 1e3)));
  for (auto [key, series] : {std::pair{"qps_per_second", &all.qps},
                             {"latency_p50_ms_per_second", &all.latency_p50_ms},
                             {"latency_p99_ms_per_second", &all.latency_p99_ms}}) {
    net::Json values = net::Json::Array();
    for (double v : *series) values.Append(net::Json::Number(std::round(v * 1e3) / 1e3));
    extra.Set(key, std::move(values));
  }
  prov.Set("window", std::move(extra));
  std::printf("provenance %s\n", prov.Dump().c_str());
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(options.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  auto profile = ProfileFor(options->workload, options->tiny);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 2;
  }
  return Run(*options, *profile);
}
