#include "inputs.h"

#include <cmath>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "net/json.h"
#include "query/binder.h"
#include "query/canonical.h"
#include "ssb/ssb_queries.h"
#include "ssb/ssb_schema.h"

namespace dpstarj::perfbench {

namespace {

// Stream salts: each kind of input draws from its own (seed, index) stream,
// so adding one kind never shifts another's values.
constexpr uint64_t kSaltExplore = 0x6578706c6f7265ULL;
constexpr uint64_t kSaltDashboard = 0x64617368ULL;
constexpr uint64_t kSaltSchedule = 0x73636865ULL;
constexpr uint64_t kSaltReport = 0x7265706fULL;
constexpr uint64_t kSaltIngest = 0x696e6773ULL;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::mt19937_64 Stream(uint64_t seed, uint64_t salt, uint64_t index) {
  return std::mt19937_64(SplitMix64(SplitMix64(seed ^ salt) + index));
}

// A bijection on [0, 2^18) — an odd multiplier plus a seeded offset — so
// indices below 2^18 map to pairwise distinct ε grid points spread evenly
// over [1/4, 1/2) whatever prefix of indices a run reaches.
uint64_t SpreadIndex(uint64_t seed, uint64_t salt, uint64_t index) {
  constexpr uint64_t kMask = (uint64_t{1} << 18) - 1;
  return (index * 0x9E3779B1ULL + SplitMix64(seed ^ salt)) & kMask;
}

// Modulo draws, not std::uniform_int_distribution: the distribution
// classes are implementation-defined, the generator must not be.
int64_t Pick(std::mt19937_64& rng, int64_t n) {
  return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
}

double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// Rows per Lineorder ingest batch: 20 batches a second through a 45-second
// window grow sf 0.1's 600k-row base by about 4%.
constexpr int64_t kIngestRows = 32;

const char* const kJoinDate = "Lineorder.orderdate = Date.datekey";
const char* const kJoinCust = "Lineorder.custkey = Customer.custkey";
const char* const kJoinSupp = "Lineorder.suppkey = Supplier.suppkey";
const char* const kJoinPart = "Lineorder.partkey = Part.partkey";

std::string Quote(const std::string& s) { return "'" + s + "'"; }

struct YearRange {
  int64_t lo = 0;
  int64_t hi = 0;
  bool operator<(const YearRange& o) const {
    return lo != o.lo ? lo < o.lo : hi < o.hi;
  }
};

YearRange DrawYearRange(std::mt19937_64& rng) {
  int64_t a = ssb::kYearLo + Pick(rng, ssb::kYearHi - ssb::kYearLo + 1);
  int64_t b = ssb::kYearLo + Pick(rng, ssb::kYearHi - ssb::kYearLo + 1);
  if (a > b) std::swap(a, b);
  return {a, b};
}

// One instance of a paper template (AllQueryNames() order) with constants
// drawn from the template's predicate domains; the same SQL shapes as
// ssb::GetQuerySql.
QuerySpec TemplateInstance(int template_index, std::mt19937_64& rng) {
  const auto& regions = ssb::Regions();
  const auto& nations = ssb::Nations();
  const auto& categories = ssb::Categories();
  const auto& mfgrs = ssb::Mfgrs();
  const std::string name = ssb::AllQueryNames()[template_index];
  const char family = name[2];  // '1'..'4'
  const bool grouped = name[1] == 'g';
  std::string select;
  if (name[1] == 'c') {
    select = "count(*)";
  } else if (name == "Qg4") {
    select = "sum(Lineorder.revenue - Lineorder.supplycost), Date.year, Part.category";
  } else if (name == "Qg2") {
    select = "sum(Lineorder.revenue), Date.year, Part.brand";
  } else {
    select = "sum(Lineorder.revenue)";
  }
  std::string sql;
  if (family == '1') {
    sql = "SELECT " + select + " FROM Date, Lineorder WHERE " + kJoinDate +
          Format(" AND Date.year = %lld;",
                 static_cast<long long>(ssb::kYearLo + Pick(rng, 7)));
  } else if (family == '2') {
    sql = "SELECT " + select + " FROM Date, Lineorder, Part, Supplier WHERE " +
          kJoinSupp + " AND " + kJoinPart + " AND " + kJoinDate +
          " AND Part.category = " + Quote(categories[Pick(rng, 25)]) +
          " AND Supplier.region = " + Quote(regions[Pick(rng, 5)]);
    sql += grouped ? " GROUP BY Date.year, Part.brand ORDER BY Date.year, Part.brand;"
                   : ";";
  } else if (family == '3') {
    const YearRange y = DrawYearRange(rng);
    sql = "SELECT " + select + " FROM Date, Lineorder, Customer, Supplier WHERE " +
          kJoinSupp + " AND " + kJoinCust + " AND " + kJoinDate +
          " AND Customer.region = " + Quote(regions[Pick(rng, 5)]) +
          " AND Supplier.region = " + Quote(regions[Pick(rng, 5)]) +
          Format(" AND Date.year BETWEEN %lld AND %lld;",
                 static_cast<long long>(y.lo), static_cast<long long>(y.hi));
  } else {
    const YearRange y = DrawYearRange(rng);
    // The parser takes an OR pair only over adjacent domain values.
    const int64_t m1 = Pick(rng, 4);
    sql = "SELECT " + select +
          " FROM Date, Lineorder, Customer, Part, Supplier WHERE " + kJoinSupp +
          " AND " + kJoinPart + " AND " + kJoinCust + " AND " + kJoinDate +
          " AND Customer.region = " + Quote(regions[Pick(rng, 5)]) +
          " AND Supplier.nation = " + Quote(nations[Pick(rng, 25)]) +
          Format(" AND Date.year BETWEEN %lld AND %lld",
                 static_cast<long long>(y.lo), static_cast<long long>(y.hi)) +
          " AND Part.mfgr = " + Quote(mfgrs[m1]) + " OR Part.mfgr = " +
          Quote(mfgrs[m1 + 1]);
    sql += grouped ? " GROUP BY Date.year, Part.category ORDER BY Date.year, "
                     "Part.category;"
                   : ";";
  }
  return {std::move(sql), 0.0, grouped};
}

// Filter predicates of a generated query: the WHERE conjuncts that are not
// join equalities (an OR pair stays one predicate).
std::vector<std::string> FilterPredicates(const std::string& sql) {
  std::vector<std::string> out;
  size_t pos = sql.find(" WHERE ");
  if (pos == std::string::npos) return out;
  pos += 7;
  size_t end = sql.find_first_of(";", pos);
  const size_t group = sql.find(" GROUP BY ", pos);
  if (group != std::string::npos && group < end) end = group;
  const std::string where = sql.substr(pos, end - pos);
  size_t start = 0;
  for (;;) {
    size_t cut = where.find(" AND ", start);
    // BETWEEN's own AND belongs to its predicate.
    if (cut != std::string::npos) {
      const size_t between = where.rfind(" BETWEEN ", cut);
      if (between != std::string::npos && between >= start) {
        cut = where.find(" AND ", cut + 5);
      }
    }
    const std::string conj =
        where.substr(start, cut == std::string::npos ? std::string::npos : cut - start);
    if (conj.find(" = Date.") == std::string::npos &&
        conj.find(" = Customer.custkey") == std::string::npos &&
        conj.find(" = Supplier.suppkey") == std::string::npos &&
        conj.find(" = Part.partkey") == std::string::npos) {
      out.push_back(conj);
    }
    if (cut == std::string::npos) break;
    start = cut + 5;
  }
  return out;
}

// Canonical (query, ε) keys seen so far. With `memoize`, each distinct SQL
// text is bound once (report batches reuse a few hundred texts at many ε);
// explore texts are nearly all distinct, so memoizing them only costs memory.
class KeyChecker {
 public:
  KeyChecker(const storage::Catalog& catalog, bool memoize)
      : binder_(&catalog), memoize_(memoize) {}

  /// Adds one query; false when its key was already present.
  Result<bool> Add(const QuerySpec& q) {
    auto it = bound_.find(q.sql);
    if (it != bound_.end()) {
      return keys_.insert(query::CanonicalKey(it->second, q.epsilon)).second;
    }
    DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder_.BindSql(q.sql));
    const bool fresh = keys_.insert(query::CanonicalKey(bound, q.epsilon)).second;
    if (memoize_) bound_.emplace(q.sql, std::move(bound));
    return fresh;
  }

 private:
  query::Binder binder_;
  bool memoize_;
  std::unordered_map<std::string, query::BoundQuery> bound_;
  std::unordered_set<std::string> keys_;
};

}  // namespace

std::string QueryBody(const QuerySpec& q, const std::string& tenant) {
  net::Json body = net::Json::Object();
  body.Set("sql", net::Json::Str(q.sql));
  body.Set("epsilon", net::Json::Number(q.epsilon));
  body.Set("tenant", net::Json::Str(tenant));
  return body.Dump();
}

std::string BatchBody(const std::vector<QuerySpec>& batch, const std::string& tenant) {
  net::Json queries = net::Json::Array();
  for (const QuerySpec& q : batch) {
    net::Json entry = net::Json::Object();
    entry.Set("sql", net::Json::Str(q.sql));
    entry.Set("epsilon", net::Json::Number(q.epsilon));
    queries.Append(std::move(entry));
  }
  net::Json body = net::Json::Object();
  body.Set("tenant", net::Json::Str(tenant));
  body.Set("queries", std::move(queries));
  return body.Dump();
}

std::string IngestBatch::Body() const {
  net::Json rows_json = net::Json::Array();
  for (const auto& row : rows) {
    net::Json cells = net::Json::Array();
    for (const storage::Value& v : row) {
      if (v.is_string()) {
        cells.Append(net::Json::Str(v.AsString()));
      } else if (v.is_int64()) {
        cells.Append(net::Json::Number(static_cast<double>(v.AsInt64())));
      } else {
        cells.Append(net::Json::Number(v.AsDouble()));
      }
    }
    rows_json.Append(std::move(cells));
  }
  net::Json body = net::Json::Object();
  body.Set("table", net::Json::Str(table));
  body.Set("rows", std::move(rows_json));
  return body.Dump();
}

Result<CatalogShape> CatalogShape::Of(const storage::Catalog& catalog) {
  CatalogShape s;
  DPSTARJ_ASSIGN_OR_RETURN(auto lo, catalog.GetTable(ssb::kLineorder));
  DPSTARJ_ASSIGN_OR_RETURN(auto cust, catalog.GetTable(ssb::kCustomer));
  DPSTARJ_ASSIGN_OR_RETURN(auto supp, catalog.GetTable(ssb::kSupplier));
  DPSTARJ_ASSIGN_OR_RETURN(auto part, catalog.GetTable(ssb::kPart));
  DPSTARJ_ASSIGN_OR_RETURN(auto date, catalog.GetTable(ssb::kDate));
  s.lineorder = lo->num_rows();
  s.customer = cust->num_rows();
  s.supplier = supp->num_rows();
  s.part = part->num_rows();
  s.date = date->num_rows();
  return s;
}

QuerySpec ExploreQuery(uint64_t seed, uint64_t index) {
  std::mt19937_64 rng = Stream(seed, kSaltExplore, index);
  QuerySpec q = TemplateInstance(static_cast<int>(Pick(rng, 9)), rng);
  q.epsilon = 0.25 + static_cast<double>(SpreadIndex(seed, kSaltExplore, index)) * 0x1.0p-20;
  return q;
}

std::vector<QuerySpec> TemplateWarmups() {
  std::vector<QuerySpec> out;
  for (const std::string& name : ssb::AllQueryNames()) {
    out.push_back({ssb::GetQuerySql(name).ValueOrDie(), 1.0, name[1] == 'g'});
  }
  return out;
}

std::vector<QuerySpec> DashboardQueries(uint64_t seed) {
  std::vector<QuerySpec> out = TemplateWarmups();
  std::set<std::string> seen;
  for (auto& q : out) {
    q.epsilon = 0.5;
    seen.insert(q.sql);
  }
  // The seven extra tiles take the first seven templates in order, so every
  // seed serves the same mix of scalar and grouped answers; only the
  // constants vary.
  std::mt19937_64 rng = Stream(seed, kSaltDashboard, 0);
  for (int t = 0; out.size() < 16;) {
    QuerySpec q = TemplateInstance(t, rng);
    if (!seen.insert(q.sql).second) continue;
    q.epsilon = 0.5;
    out.push_back(std::move(q));
    ++t;
  }
  return out;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate, double seconds) {
  std::mt19937_64 rng = Stream(seed, kSaltSchedule, 0);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-Unit(rng)) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

Batch ReportBatch(uint64_t seed, uint64_t index) {
  std::mt19937_64 rng = Stream(seed, kSaltReport, index);
  const auto& regions = ssb::Regions();
  YearRange years[2] = {DrawYearRange(rng), DrawYearRange(rng)};
  while (!(years[0] < years[1]) && !(years[1] < years[0])) {
    years[1] = DrawYearRange(rng);
  }
  int64_t cust[2] = {Pick(rng, 5), 0};
  cust[1] = (cust[0] + 1 + Pick(rng, 4)) % 5;
  int64_t supp[2] = {Pick(rng, 5), 0};
  supp[1] = (supp[0] + 1 + Pick(rng, 4)) % 5;
  const double epsilon = 0.25 + static_cast<double>(SpreadIndex(seed, kSaltReport, index)) * 0x1.0p-20;
  Batch batch;
  for (const YearRange& y : years) {
    for (int64_t c : cust) {
      for (int64_t s : supp) {
        for (const char* agg : {"count(*)", "sum(Lineorder.revenue)"}) {
          std::string sql =
              std::string("SELECT ") + agg +
              " FROM Date, Lineorder, Customer, Supplier WHERE " + kJoinSupp +
              " AND " + kJoinCust + " AND " + kJoinDate +
              " AND Customer.region = " + Quote(regions[c]) +
              " AND Supplier.region = " + Quote(regions[s]) +
              Format(" AND Date.year BETWEEN %lld AND %lld;",
                     static_cast<long long>(y.lo), static_cast<long long>(y.hi));
          batch.push_back({std::move(sql), epsilon, false});
        }
      }
    }
  }
  return batch;
}

Batch ReportWarmupBatch() {
  Batch batch = ReportBatch(0, 0);
  batch.resize(2);  // one count, one sum: the two plan shapes
  for (auto& q : batch) q.epsilon = 1.0;
  return batch;
}

IngestBatch IngestBatchAt(uint64_t seed, uint64_t index, const CatalogShape& shape) {
  std::mt19937_64 rng = Stream(seed, kSaltIngest, index);
  IngestBatch batch;
  if (index % 10 == 9) {
    batch.table = ssb::kCustomer;
    const int64_t first_key = shape.customer + 1 + static_cast<int64_t>(index / 10) * 8;
    for (int64_t r = 0; r < 8; ++r) {
      const int64_t key = first_key + r;
      const int64_t nation = Pick(rng, 25);
      batch.rows.push_back(
          {storage::Value(key), storage::Value(ssb::Regions()[nation / 5]),
           storage::Value(ssb::Nations()[nation]),
           storage::Value(ssb::Cities()[nation * 10 + Pick(rng, 10)]),
           storage::Value(Pick(rng, ssb::kNumZip)),
           storage::Value(Format("addr_%lld", static_cast<long long>(key)))});
    }
    return batch;
  }
  batch.table = ssb::kLineorder;
  for (int64_t r = 0; r < kIngestRows; ++r) {
    // Measures are whole cents, so the wire's number decoding is exact.
    const double revenue = static_cast<double>(10000 + Pick(rng, 990001)) / 100.0;
    const double supplycost = static_cast<double>(1000 + Pick(rng, 99001)) / 100.0;
    batch.rows.push_back({
        storage::Value(shape.lineorder + 1 + static_cast<int64_t>(index) * kIngestRows + r),
        storage::Value(1 + Pick(rng, shape.customer)),
        storage::Value(1 + Pick(rng, shape.part)),
        storage::Value(1 + Pick(rng, shape.supplier)),
        storage::Value(1 + Pick(rng, shape.date)),
        storage::Value(1 + Pick(rng, 50)),
        storage::Value(revenue),
        storage::Value(supplycost),
    });
  }
  return batch;
}

Status CheckExploreDistinct(const storage::Catalog& catalog, uint64_t seed,
                            uint64_t count) {
  if (count > kExploreIndexLimit) {
    return Status::OutOfRange("explore sent more requests than distinct ε values");
  }
  KeyChecker keys(catalog, /*memoize=*/false);
  for (uint64_t i = 0; i < count; ++i) {
    DPSTARJ_ASSIGN_OR_RETURN(bool fresh, keys.Add(ExploreQuery(seed, i)));
    if (!fresh) {
      return Status::Internal(Format("explore request %llu repeats a canonical key",
                                     static_cast<unsigned long long>(i)));
    }
  }
  return Status::OK();
}

Status CheckReportBatches(const storage::Catalog& catalog, uint64_t seed,
                          uint64_t count) {
  if (count > kReportIndexLimit) {
    return Status::OutOfRange("report_stream sent more batches than distinct ε values");
  }
  KeyChecker keys(catalog, /*memoize=*/true);
  for (uint64_t b = 0; b < count; ++b) {
    const Batch batch = ReportBatch(seed, b);
    std::set<std::string> distinct;
    size_t refs = 0;
    for (const QuerySpec& q : batch) {
      for (const std::string& p : FilterPredicates(q.sql)) {
        distinct.insert(p);
        ++refs;
      }
      DPSTARJ_ASSIGN_OR_RETURN(bool fresh, keys.Add(q));
      if (!fresh) {
        return Status::Internal(Format("report batch %llu repeats a canonical key",
                                       static_cast<unsigned long long>(b)));
      }
    }
    if (batch.size() != 16 || refs != 48 || distinct.size() != 6) {
      return Status::Internal(Format(
          "report batch %llu: %zu queries, %zu predicate refs, %zu distinct",
          static_cast<unsigned long long>(b), batch.size(), refs, distinct.size()));
    }
  }
  return Status::OK();
}

Status CheckIngestKeys(const storage::Catalog& catalog, uint64_t seed,
                       uint64_t count, const CatalogShape& shape) {
  // The primary keys actually present in each referenced dimension; fact
  // column index → key set, in LineorderSchema order.
  std::vector<std::pair<int, std::unordered_set<int64_t>>> dims;
  for (const auto& [fk_col, table_name] :
       std::vector<std::pair<int, const char*>>{{1, ssb::kCustomer},
                                                {2, ssb::kPart},
                                                {3, ssb::kSupplier},
                                                {4, ssb::kDate}}) {
    DPSTARJ_ASSIGN_OR_RETURN(auto table, catalog.GetTable(table_name));
    const auto& keys = table->column(table->primary_key_index()).int64_data();
    dims.emplace_back(fk_col, std::unordered_set<int64_t>(keys.begin(), keys.end()));
  }
  for (uint64_t i = 0; i < count; ++i) {
    const IngestBatch batch = IngestBatchAt(seed, i, shape);
    if (batch.table != ssb::kLineorder) continue;
    for (const auto& row : batch.rows) {
      for (const auto& [fk_col, keys] : dims) {
        if (keys.count(row[fk_col].AsInt64()) == 0) {
          return Status::Internal(Format(
              "ingest batch %llu references a missing dimension key",
              static_cast<unsigned long long>(i)));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace dpstarj::perfbench
