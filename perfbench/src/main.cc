// perfbench: drives service::QueryService with one named workload, checks
// every answer against the benchmark's own reference, and prints the
// metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload selective_mix|scan_heavy|dashboard_dml
//             --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 traces every query and
// prints the per-layer metrics instead. Human-readable notes go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/filter_pruner.h"
#include "core/limit_pruner.h"
#include "core/predicate_cache.h"
#include "expr/evaluator.h"
#include "model.h"
#include "reference.h"
#include "service/query_service.h"
#include "storage/catalog.h"

namespace perfbench {
namespace {

using snowprune::Catalog;
using snowprune::QueryResult;
using snowprune::Table;
using snowprune::service::QueryService;
using snowprune::service::QueryServiceConfig;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

/// Builds a table through the public storage API, timing each partition's
/// build and append as one write.
std::shared_ptr<Table> BuildTable(const TableData& data,
                                  std::vector<double>* write_ms) {
  auto table = std::make_shared<Table>(data.name, TableSchema());
  for (size_t p = 0; p < data.parts.size(); ++p) {
    const int64_t t0 = NowNs();
    table->AppendPartition(
        BuildPartition(static_cast<snowprune::PartitionId>(p), data.parts[p]));
    if (write_ms != nullptr) write_ms->push_back(Ms(NowNs() - t0));
  }
  return table;
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children may overlap when pool workers run in parallel).
std::vector<int64_t> SelfTimes(const std::vector<snowprune::TraceSpan>& spans) {
  std::map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const auto& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].push_back({s.start_ns, s.start_ns + s.duration_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = lo + spans[i].duration_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, spans[i].duration_ns - covered);
  }
  return self;
}

/// Queries a p99 window holds at least, so that ten or more lie beyond each
/// window's p99. A window is a run of whole rounds.
constexpr size_t kWindowQueries = 1000;

int64_t JitCounter(const char* name) {
  return snowprune::MetricsRegistry::Instance().GetCounter(name)->Value();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// One workload run: the service under test, the meters, and the verdict.
class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), rng_(opt.seed ^ 0xb5ad4eceda1ce2a9ULL) {}

  int Run();

 private:
  // ---- set-up (only program work is timed into setup_ns_) ----
  void Load(const TableData& data);
  void StartService(size_t shards, snowprune::PredicateCache* cache);

  // ---- measured operations ----
  struct Outcome {
    bool ok = false;
    QueryResult result;
    double latency_ms = 0;
    double queue_ms = 0;
    /// Keeps the query's trace (owned by the handle) alive.
    QueryService::Handle handle;
    const snowprune::Trace* trace = nullptr;
  };
  /// Submits and awaits one query; latency is client-observed.
  Outcome RunSolo(const Query& q);
  /// Accounts one finished measured query (latency, stats, layers).
  void Account(const Query& q, const Expected& e, const Outcome& o);
  /// Checks one answer against the reference, printing the first few
  /// mismatches; returns true when the answer is right.
  bool Verify(const Query& q, const Expected& e, const TableData& t,
              const QueryResult& r, const char* where);
  void MeasureLayers(const Query& q, const Expected& e);
  void AddTrace(const snowprune::Trace& trace, double latency_ms);

  int RunPool(Workload w, size_t shards);
  /// The read-only workloads' write stream: a few partition appends to a
  /// side table no query reads, then CREATE OR REPLACE of that table.
  void SideWrites(const TableData& source);
  int RunDashboard();
  void ProbeRound();
  /// Snapshots the process-wide counters at the start of the measured part.
  void StartMeasuring();
  /// Closes a round that began with the meters at these values.
  void EndRound(int64_t busy0, int64_t cpu0, int64_t queries0);
  /// True once the run may end: its time is up and it holds a p99 window.
  bool Done(int64_t deadline) const {
    return NowNs() >= deadline && !window_p99_.empty();
  }
  int Report();

  const Options opt_;
  Rng rng_;
  Catalog catalog_;
  std::unique_ptr<QueryService> svc_;
  std::unique_ptr<snowprune::PredicateCache> cache_;
  int64_t setup_ns_ = 0;
  int64_t start_ns_ = NowNs();

  // End-to-end meters.
  std::vector<double> latency_ms_;
  std::vector<double> write_ms_;
  int64_t busy_ns_ = 0, cpu_ns_ = 0, queries_ = 0, loads_ = 0;
  /// Throughput, CPU per query and p50 latency of each round, and p99 of
  /// each window; their medians are the reported figures, so a slow spell
  /// of the machine within a run moves them less than a pooled figure.
  std::vector<double> round_qps_, round_cpu_ms_, round_p50_, window_p99_;
  size_t window_start_ = 0;  // index into latency_ms_ of the open window
  int64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  int errors_printed_ = 0;

  /// Per query class: queries, latency sum (ms), loads (single-client runs).
  struct ClassTally {
    int64_t n = 0;
    double latency_ms = 0, loads = 0;
  };
  std::map<std::string, ClassTally> classes_;

  // Per-layer sums (divided by queries_ at the end, unless noted).
  std::map<std::string, double> layer_;
  double eval_ns_ = 0, eval_rows_ = 0;
  static constexpr const char* kJitCounters[4] = {"jit.compiles", "jit.hits", "jit.fallbacks",
                                                  "jit.invalidations"};
  int64_t jit0_[4] = {0, 0, 0, 0};
  snowprune::PredicateCache::Counters cache0_;
};

void Bench::Load(const TableData& data) {
  const int64_t t0 = NowNs();
  std::shared_ptr<Table> table = BuildTable(data, &write_ms_);
  const snowprune::Status st = catalog_.RegisterTable(table);
  setup_ns_ += NowNs() - t0;
  if (!st.ok()) {
    std::fprintf(stderr, "register %s: %s\n", data.name.c_str(), st.ToString().c_str());
    correct_ = false;
  }
}

void Bench::StartService(size_t shards, snowprune::PredicateCache* cache) {
  QueryServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.max_in_flight = 2;
  cfg.num_shards = shards;
  cfg.trace_every = opt_.trace ? 1 : 0;
  cfg.engine.predicate_cache = cache;
  const int64_t t0 = NowNs();
  svc_ = std::make_unique<QueryService>(&catalog_, cfg);
  setup_ns_ += NowNs() - t0;
}

Bench::Outcome Bench::RunSolo(const Query& q) {
  Outcome o;
  const int64_t t0 = NowNs();
  auto handle = svc_->Submit(q.Plan());
  if (!handle.ok()) {
    std::fprintf(stderr, "submit failed: %s\n", handle.status().ToString().c_str());
    return o;
  }
  auto result = handle.value().Await();
  o.latency_ms = Ms(NowNs() - t0);
  o.queue_ms = handle.value().queue_ms();
  o.handle = handle.value();
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return o;
  }
  o.ok = true;
  o.result = std::move(result).value();
  o.trace = o.handle.trace();
  return o;
}

bool Bench::Verify(const Query& q, const Expected& e, const TableData& t,
                   const QueryResult& r, const char* where) {
  const std::string err = Check(q, e, t, r.rows);
  if (err.empty()) return true;
  if (errors_printed_++ < 5) {
    std::fprintf(stderr, "wrong answer (%s, %s on %s): %s\n", where, q.cls.c_str(),
                 q.table.c_str(), err.c_str());
  }
  return false;
}

void Bench::Account(const Query& q, const Expected& e, const Outcome& o) {
  ++queries_;
  latency_ms_.push_back(o.latency_ms);
  ClassTally& c = classes_[q.cls];
  ++c.n;
  c.latency_ms += o.latency_ms;
  if (!opt_.trace) return;
  const snowprune::PruningStats& s = o.result.stats;
  layer_["core.pruned_filter"] += static_cast<double>(s.pruned_by_filter);
  layer_["core.pruned_limit"] += static_cast<double>(s.pruned_by_limit);
  layer_["core.pruned_topk"] += static_cast<double>(s.pruned_by_topk);
  layer_["core.pruned_join"] += static_cast<double>(s.pruned_by_join);
  layer_["shard.contacted"] += static_cast<double>(s.shards_total - s.shards_pruned);
  layer_["shard.pruned"] += static_cast<double>(s.shards_pruned);
  layer_["exec.result_rows"] += static_cast<double>(o.result.rows.size());
  layer_["service.queue_ms"] += o.queue_ms;
  layer_["storage.scanned_plus_speculative"] +=
      static_cast<double>(s.scanned_partitions + s.speculative_loads);
  if (o.trace != nullptr) AddTrace(*o.trace, o.latency_ms);
  MeasureLayers(q, e);
}

void Bench::AddTrace(const snowprune::Trace& trace, double latency_ms) {
  static const std::map<std::string, std::string> kSelf = {
      {"compile", "exec.compile_ms"},      {"execute", "exec.execute_ms"},
      {"join.build", "exec.join_build_ms"}, {"agg.drain", "exec.agg_drain_ms"},
      {"sort.drain", "exec.sort_drain_ms"}, {"topk.drain", "exec.topk_drain_ms"},
      {"scatter", "shard.scatter_ms"},      {"gather", "shard.gather_ms"}};
  const auto& spans = trace.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  double query_ms = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (name == "scan.morsel") layer_["exec.morsels"] += 1;
    if (name == "query" && spans[i].parent == 0) query_ms += Ms(spans[i].duration_ns);
    auto it = kSelf.find(name);
    if (it != kSelf.end()) layer_[it->second] += Ms(self[i]);
  }
  layer_["unaccounted_ms"] += latency_ms - query_ms;
}

void Bench::MeasureLayers(const Query& q, const Expected& e) {
  // Pruning, timed from outside on the query's own table and predicate.
  struct ScanSpec {
    const std::string* table;
    const Pred* pred;
    bool probe;
  };
  std::vector<ScanSpec> scans = {{&q.table, &q.pred, true}};
  if (q.kind == QKind::kJoin) scans.push_back({&q.build_table, &q.build_pred, false});
  for (const ScanSpec& sc : scans) {
    std::shared_ptr<Table> table = catalog_.GetTable(*sc.table);
    if (table == nullptr) continue;
    snowprune::ExprPtr expr = sc.pred->ToExpr();
    if (expr != nullptr && !snowprune::BindExpr(expr, table->schema()).ok()) continue;
    const int64_t t0 = NowNs();
    snowprune::FilterPruner pruner(expr);
    snowprune::FilterPruneResult fr = pruner.Prune(*table, table->FullScanSet());
    if (q.kind == QKind::kLimit && sc.probe) {
      snowprune::LimitPruner::Prune(*table, fr, q.k);
    }
    layer_["core.prune_ms"] += Ms(NowNs() - t0);
    if (expr == nullptr || !sc.probe) continue;
    // Zone maps could not rule these out, yet no row matches.
    for (snowprune::PartitionId pid : fr.scan_set) {
      if (pid < e.part_has_match.size() && !e.part_has_match[pid]) {
        layer_["core.loaded_without_match"] += 1;
      }
    }
    // Predicate evaluation over the partitions the predicate loads.
    snowprune::EvalScratch scratch;
    std::vector<uint32_t> selection;
    const int64_t e0 = NowNs();
    for (snowprune::PartitionId pid : fr.scan_set) {
      const snowprune::MicroPartition& part = table->partition_metadata(pid);
      snowprune::ComputeSelection(*expr, part, &selection, &scratch);
      eval_rows_ += static_cast<double>(part.row_count());
    }
    eval_ns_ += static_cast<double>(NowNs() - e0);
  }
}

int Bench::RunPool(Workload w, size_t shards) {
  for (const TableData& t : w.tables) Load(t);
  std::vector<Expected> expected;
  for (const Query& q : w.pool) {
    expected.push_back(ComputeExpected(q, *w.Find(q.table),
                                       q.kind == QKind::kJoin ? w.Find(q.build_table) : nullptr));
  }
  StartService(shards, nullptr);
  // Warm-up: the first query of each class on each table, so every shard
  // map is built and every plan shape compiled once; only the service calls
  // count.
  std::set<std::pair<std::string, std::string>> warmed;
  for (size_t i = 0; i < w.pool.size(); ++i) {
    if (!warmed.insert({w.pool[i].cls, w.pool[i].table}).second) continue;
    Outcome o = RunSolo(w.pool[i]);
    setup_ns_ += static_cast<int64_t>(o.latency_ms * 1e6);
    if (!o.ok || !Verify(w.pool[i], expected[i], *w.Find(w.pool[i].table), o.result, "warm-up")) {
      correct_ = false;
    }
  }
  StartMeasuring();
  write_ms_.clear();  // write latency is the side writes, not the bulk load
  std::vector<size_t> order(w.pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt_.seconds) * 1000000000LL;
  // Whole rounds: every round runs each pool query once, in a fresh order.
  do {
    const int64_t busy0 = busy_ns_, cpu_round0 = cpu_ns_, queries0 = queries_;
    Shuffle(&order, &rng_);
    for (size_t idx : order) {
      const Query& q = w.pool[idx];
      const int64_t loads0 = catalog_.TotalLoads();
      const int64_t cpu0 = CpuNs(), t0 = NowNs();
      Outcome o = RunSolo(q);
      busy_ns_ += NowNs() - t0;
      cpu_ns_ += CpuNs() - cpu0;
      const int64_t loads = catalog_.TotalLoads() - loads0;
      ++attempted_;
      if (!o.ok) {
        ++failed_;
        continue;
      }
      loads_ += loads;
      classes_[q.cls].loads += static_cast<double>(loads);
      if (!Verify(q, expected[idx], *w.Find(q.table), o.result, "measured")) correct_ = false;
      if (loads < o.result.stats.scanned_partitions) {
        std::fprintf(stderr, "loads %lld < scanned %lld\n", static_cast<long long>(loads),
                     static_cast<long long>(o.result.stats.scanned_partitions));
        correct_ = false;
      }
      Account(q, expected[idx], o);
    }
    EndRound(busy0, cpu_round0, queries0);
    SideWrites(w.tables[0]);
  } while (!Done(deadline));
  return Report();
}

void Bench::SideWrites(const TableData& source) {
  constexpr size_t kAppends = 8;
  auto side = std::make_shared<Table>("side_writes", TableSchema());
  for (size_t i = 0; i < kAppends; ++i) {
    const Rows& rows = source.parts[static_cast<size_t>(rng_.Next() % source.parts.size())];
    const int64_t t0 = NowNs();
    side->AppendPartition(BuildPartition(static_cast<snowprune::PartitionId>(i), rows));
    write_ms_.push_back(Ms(NowNs() - t0));
  }
  const int64_t t0 = NowNs();
  const snowprune::Status st = catalog_.ReplaceTable(std::move(side));
  write_ms_.push_back(Ms(NowNs() - t0));
  attempted_ += kAppends + 1;
  if (!st.ok()) ++failed_;
}

// ---------------------------------------------------------------------------
// dashboard_dml
// ---------------------------------------------------------------------------

constexpr size_t kWaveRepeats = 2;     // each shape twice per wave
constexpr size_t kOutstanding = 2;     // queries in flight
constexpr size_t kReplaceEvery = 8;    // CREATE OR REPLACE events every 8th round
constexpr size_t kCacheCapacity = 64;  // predicate-cache entries

int Bench::RunDashboard() {
  Workload w = MakeDashboard(opt_.seed);
  const TableData events_base = w.tables[0];
  std::map<std::string, TableData> mirror;
  for (const TableData& t : w.tables) {
    Load(t);
    mirror[t.name] = t;
  }
  std::map<std::string, bool> changed_in_place;
  int64_t event_id = 100000000, order_id = 200000000;
  int64_t event_key = 10 * static_cast<int64_t>(events_base.num_rows());
  int64_t order_key = 0;
  cache_ = std::make_unique<snowprune::PredicateCache>(kCacheCapacity);
  StartService(1, cache_.get());

  auto expect_all = [&]() {
    std::vector<Expected> out;
    for (const Query& q : w.pool) out.push_back(ComputeExpected(q, mirror.at(q.table), nullptr));
    return out;
  };
  // Warm-up: every shape past the specialization threshold (8 hits).
  {
    std::vector<Expected> ex = expect_all();
    for (size_t rep = 0; rep < 9; ++rep) {
      for (size_t i = 0; i < w.pool.size(); ++i) {
        Outcome o = RunSolo(w.pool[i]);
        setup_ns_ += static_cast<int64_t>(o.latency_ms * 1e6);
        if (!o.ok || !Verify(w.pool[i], ex[i], mirror.at(w.pool[i].table), o.result, "warm-up")) {
          correct_ = false;
        }
      }
    }
  }
  StartMeasuring();

  auto timed_write = [&](auto&& fn) {
    const int64_t t0 = NowNs();
    fn();
    write_ms_.push_back(Ms(NowNs() - t0));
    ++attempted_;
  };

  write_ms_.clear();  // write latency is the dashboard's writes, not the bulk load
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt_.seconds) * 1000000000LL;
  size_t round = 0;
  do {
    // ---- one wave: every shape kWaveRepeats times, two in flight ----
    std::vector<size_t> order;
    for (size_t r = 0; r < kWaveRepeats; ++r) {
      for (size_t i = 0; i < w.pool.size(); ++i) order.push_back(i);
    }
    Shuffle(&order, &rng_);
    const std::vector<Expected> ex = expect_all();
    struct Pending {
      size_t idx;
      int64_t submit_ns;
      QueryService::Handle handle;
    };
    const int64_t busy0 = busy_ns_, cpu_round0 = cpu_ns_, queries0 = queries_;
    std::deque<Pending> inflight;
    std::vector<std::pair<size_t, Outcome>> done;
    size_t next = 0;
    const int64_t loads0 = catalog_.TotalLoads();
    const int64_t cpu0 = CpuNs(), t0 = NowNs();
    auto submit = [&]() {
      const size_t idx = order[next++];
      const int64_t s = NowNs();
      auto h = svc_->Submit(w.pool[idx].Plan());
      if (!h.ok()) {
        Outcome o;
        done.push_back({idx, std::move(o)});
        return;
      }
      inflight.push_back({idx, s, h.value()});
    };
    while (next < order.size() && inflight.size() < kOutstanding) submit();
    while (!inflight.empty()) {
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      auto result = p.handle.Await();
      Outcome o;
      o.latency_ms = Ms(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            p.handle.done_at().time_since_epoch())
                            .count() -
                        p.submit_ns);
      o.queue_ms = p.handle.queue_ms();
      o.handle = p.handle;
      o.trace = p.handle.trace();
      if (result.ok()) {
        o.ok = true;
        o.result = std::move(result).value();
      } else {
        std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
      }
      done.push_back({p.idx, std::move(o)});
      if (next < order.size()) submit();
    }
    busy_ns_ += NowNs() - t0;
    cpu_ns_ += CpuNs() - cpu0;
    const int64_t wave_loads = catalog_.TotalLoads() - loads0;
    loads_ += wave_loads;
    int64_t scanned = 0;
    for (auto& [idx, o] : done) {
      const Query& q = w.pool[idx];
      ++attempted_;
      if (!o.ok) {
        ++failed_;
        continue;
      }
      scanned += o.result.stats.scanned_partitions;
      if (!Verify(q, ex[idx], mirror.at(q.table), o.result, "wave")) {
        if (o.result.predicate_cache_hit && changed_in_place[q.table]) {
          ++failed_;
        } else {
          correct_ = false;
        }
      }
      Account(q, ex[idx], o);
    }
    EndRound(busy0, cpu_round0, queries0);
    if (wave_loads < scanned) {
      std::fprintf(stderr, "wave loads %lld < scanned %lld\n", static_cast<long long>(wave_loads),
                   static_cast<long long>(scanned));
      correct_ = false;
    }

    // ---- writes, with no query in flight ----
    TableData& ev = mirror.at("events");
    TableData& od = mirror.at("orders");
    if (round % kReplaceEvery == kReplaceEvery - 1) {
      ev = events_base;  // CREATE OR REPLACE back to the base version
      event_key = 10 * static_cast<int64_t>(events_base.num_rows());
      timed_write([&] { catalog_.ReplaceTable(BuildTable(ev, nullptr)); });
      changed_in_place["events"] = false;
    } else {
      Rows rows = MakeAppendRows(&rng_, 500, &event_id, &event_key, 10, 12, 999);
      timed_write([&] {
        catalog_.GetTable("events")->AppendPartition(BuildPartition(
            static_cast<snowprune::PartitionId>(ev.parts.size()), rows));
      });
      ev.parts.push_back(std::move(rows));
    }
    {
      // In-place UPDATE of a measure column no cached shape filters or
      // orders on.
      const size_t pid = static_cast<size_t>(rng_.Next() % ev.parts.size());
      Rows rows = ev.parts[pid];
      for (int64_t& a : rows.amt) a = (a + 7) % 1000;
      timed_write([&] {
        catalog_.GetTable("events")->ReplacePartition(
            static_cast<snowprune::PartitionId>(pid),
            BuildPartition(static_cast<snowprune::PartitionId>(pid), rows));
      });
      ev.parts[pid] = std::move(rows);
      changed_in_place["events"] = true;
    }
    {
      const size_t pid = static_cast<size_t>(rng_.Next() % od.parts.size());
      timed_write([&] {
        catalog_.GetTable("orders")->DeletePartition(static_cast<snowprune::PartitionId>(pid));
      });
      od.parts.erase(od.parts.begin() + static_cast<std::ptrdiff_t>(pid));
      changed_in_place["orders"] = true;
      Rows rows = MakeAppendRows(&rng_, 500, &order_id, &order_key, 1, 12, 9999);
      for (int64_t& k : rows.key) k = rng_.Uniform(0, 999999);
      timed_write([&] {
        catalog_.GetTable("orders")->AppendPartition(BuildPartition(
            static_cast<snowprune::PartitionId>(od.parts.size()), rows));
      });
      od.parts.push_back(std::move(rows));
    }
    ProbeRound();
    ++round;
  } while (!Done(deadline));
  return Report();
}

/// The named predicate-cache fault, probed on inputs that do not depend on
/// the seed: a repeated top-k query on a table changed in place is served
/// the stale cached partition ids. Each probe is five operations; the last
/// query is expected to come back wrong on every round while the fault
/// stands, and counts as one failed operation.
void Bench::ProbeRound() {
  Query q;
  q.cls = "probe";
  q.kind = QKind::kTopK;
  q.table = "probe_sorted";
  q.k = 5;
  q.order_col = kKey;
  q.desc = true;
  for (int variant = 0; variant < 2; ++variant) {
    TableData mirror = ProbeTable();
    catalog_.ReplaceTable(BuildTable(mirror, nullptr));
    ++attempted_;
    auto run = [&](bool stale_allowed) {
      Outcome o = RunSolo(q);
      ++attempted_;
      if (!o.ok) {
        ++failed_;
        return;
      }
      const Expected e = ComputeExpected(q, mirror, nullptr);
      if (!Check(q, e, mirror, o.result.rows).empty()) {
        if (stale_allowed && o.result.predicate_cache_hit) {
          ++failed_;
        } else {
          Verify(q, e, mirror, o.result, "probe");
          correct_ = false;
        }
      }
    };
    run(false);  // miss: populates the cache
    run(false);  // hit on the unchanged table
    std::shared_ptr<Table> table = catalog_.GetTable("probe_sorted");
    if (variant == 0) {
      const size_t last = mirror.parts.size() - 1;
      table->DeletePartition(static_cast<snowprune::PartitionId>(last));
      mirror.parts.pop_back();
    } else {
      for (int64_t& k : mirror.parts[0].key) k += 100000;
      table->ReplacePartition(0, BuildPartition(0, mirror.parts[0]));
    }
    ++attempted_;
    run(true);  // hit on the table changed in place
  }
}

void Bench::StartMeasuring() {
  for (int i = 0; i < 4; ++i) jit0_[i] = JitCounter(kJitCounters[i]);
  if (cache_ != nullptr) cache0_ = cache_->snapshot();
}

void Bench::EndRound(int64_t busy0, int64_t cpu0, int64_t queries0) {
  const double n = static_cast<double>(queries_ - queries0);
  if (n == 0 || busy_ns_ == busy0) return;
  round_qps_.push_back(n / (static_cast<double>(busy_ns_ - busy0) / 1e9));
  round_cpu_ms_.push_back(Ms(cpu_ns_ - cpu0) / n);
  const auto first = latency_ms_.begin();
  round_p50_.push_back(Percentile({first + queries0, latency_ms_.end()}, 50));
  if (latency_ms_.size() - window_start_ >= kWindowQueries) {
    window_p99_.push_back(
        Percentile({first + static_cast<std::ptrdiff_t>(window_start_), latency_ms_.end()}, 99));
    window_start_ = latency_ms_.size();
  }
}

void PrintMetric(std::string* out, const char* name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name, value, unit);
  *out += buf;
}

int Bench::Report() {
  const double q = static_cast<double>(std::max<int64_t>(queries_, 1));
  for (const auto& [cls, c] : classes_) {
    const double n = static_cast<double>(c.n);
    std::fprintf(stderr, "  %-12s %5.1f%% of queries, mean %.3f ms, %.1f loads/query\n",
                 cls.c_str(), 100.0 * n / q, c.latency_ms / n, c.loads / n);
  }
  std::string m;
  if (!opt_.trace) {
    PrintMetric(&m, "setup_s", static_cast<double>(setup_ns_) / 1e9, "s");
    PrintMetric(&m, "qps", Percentile(round_qps_, 50), "1/s");
    PrintMetric(&m, "latency_p50_ms", Percentile(round_p50_, 50), "ms");
    PrintMetric(&m, "latency_p99_ms", Percentile(window_p99_, 50), "ms");
    PrintMetric(&m, "cpu_ms_per_query", Percentile(round_cpu_ms_, 50), "ms");
    PrintMetric(&m, "partitions_loaded_per_query", static_cast<double>(loads_) / q, "count");
    PrintMetric(&m, "write_p50_ms", Percentile(write_ms_, 50), "ms");
    PrintMetric(&m, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    auto per_query = [&](const char* name) { return layer_[name] / q; };
    const double loads = static_cast<double>(loads_) / q;
    PrintMetric(&m, "storage.partitions_loaded", loads, "count");
    PrintMetric(&m, "storage.overread_partitions",
                loads - per_query("storage.scanned_plus_speculative"), "count");
    double write_sum = 0;
    for (double ms : write_ms_) write_sum += ms;
    PrintMetric(&m, "storage.write_ms",
                write_ms_.empty() ? 0.0 : write_sum / static_cast<double>(write_ms_.size()), "ms");
    PrintMetric(&m, "core.prune_ms", per_query("core.prune_ms"), "ms");
    PrintMetric(&m, "core.pruned_filter", per_query("core.pruned_filter"), "count");
    PrintMetric(&m, "core.pruned_limit", per_query("core.pruned_limit"), "count");
    PrintMetric(&m, "core.pruned_topk", per_query("core.pruned_topk"), "count");
    PrintMetric(&m, "core.pruned_join", per_query("core.pruned_join"), "count");
    PrintMetric(&m, "core.loaded_without_match", per_query("core.loaded_without_match"), "count");
    double hit_ratio = 0.0;
    if (cache_ != nullptr) {
      const auto c = cache_->snapshot();
      const int64_t hits = c.hits - cache0_.hits, misses = c.misses - cache0_.misses;
      if (hits + misses > 0) hit_ratio = static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
    PrintMetric(&m, "core.predcache_hit_ratio", hit_ratio, "ratio");
    PrintMetric(&m, "expr.eval_ns_per_row", eval_rows_ > 0 ? eval_ns_ / eval_rows_ : 0.0, "ns/row");
    const char* jit_metrics[4] = {"expr.jit_compiles", "expr.jit_hits", "expr.jit_fallbacks",
                                  "expr.jit_invalidations"};
    for (int i = 0; i < 4; ++i) {
      PrintMetric(&m, jit_metrics[i],
                  static_cast<double>(JitCounter(kJitCounters[i]) - jit0_[i]) / q, "count");
    }
    for (const char* name : {"exec.compile_ms", "exec.execute_ms", "exec.join_build_ms",
                             "exec.agg_drain_ms", "exec.sort_drain_ms", "exec.topk_drain_ms"}) {
      PrintMetric(&m, name, per_query(name), "ms");
    }
    PrintMetric(&m, "exec.morsels", per_query("exec.morsels"), "count");
    PrintMetric(&m, "exec.result_rows", per_query("exec.result_rows"), "count");
    PrintMetric(&m, "shard.contacted", per_query("shard.contacted"), "count");
    PrintMetric(&m, "shard.pruned", per_query("shard.pruned"), "count");
    PrintMetric(&m, "shard.scatter_ms", per_query("shard.scatter_ms"), "ms");
    PrintMetric(&m, "shard.gather_ms", per_query("shard.gather_ms"), "ms");
    PrintMetric(&m, "service.queue_ms", per_query("service.queue_ms"), "ms");
    PrintMetric(&m, "service.peak_in_flight",
                static_cast<double>(svc_->stats().peak_in_flight), "count");
    PrintMetric(&m, "unaccounted_ms", per_query("unaccounted_ms"), "ms");
    PrintMetric(&m, "trace.qps", Percentile(round_qps_, 50), "1/s");
  }
  std::fprintf(stderr,
               "%s seed=%llu: %lld queries, %lld attempted, %lld failed, correct=%s, "
               "%zu rounds, %zu p99 windows, wall %.1f s\n",
               opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
               static_cast<long long>(queries_), static_cast<long long>(attempted_),
               static_cast<long long>(failed_), correct_ ? "true" : "false",
               round_qps_.size(), window_p99_.size(), Ms(NowNs() - start_ns_) / 1e3);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct_ ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_), m.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

int Bench::Run() {
  if (opt_.workload == "selective_mix") return RunPool(MakeSelectiveMix(opt_.seed), 2);
  if (opt_.workload == "scan_heavy") return RunPool(MakeScanHeavy(opt_.seed), 1);
  if (opt_.workload == "dashboard_dml") return RunDashboard();
  std::fprintf(stderr, "unknown workload '%s'\n", opt_.workload.c_str());
  return 2;
}

// ---------------------------------------------------------------------------
// --selftest
// ---------------------------------------------------------------------------

/// Runs `pool` serially and unsharded: every answer must be right, and the
/// load meters must equal scanned + speculative (two totals reached by
/// independent paths; exact only on this path).
int SerialStorageCheck(const char* name, const Workload& w, size_t limit) {
  Catalog catalog;
  for (const TableData& t : w.tables) {
    if (!catalog.RegisterTable(BuildTable(t, nullptr)).ok()) return 1;
  }
  QueryServiceConfig cfg;
  cfg.num_threads = 1;
  cfg.max_in_flight = 1;
  QueryService svc(&catalog, cfg);
  int bad = 0;
  for (size_t i = 0; i < std::min(limit, w.pool.size()); ++i) {
    const Query& q = w.pool[i];
    const TableData& t = *w.Find(q.table);
    const Expected e = ComputeExpected(q, t, q.kind == QKind::kJoin ? w.Find(q.build_table) : nullptr);
    const int64_t loads0 = catalog.TotalLoads();
    auto r = svc.Execute(q.Plan());
    const int64_t loads = catalog.TotalLoads() - loads0;
    if (!r.ok()) {
      std::fprintf(stderr, "%s #%zu failed: %s\n", name, i, r.status().ToString().c_str());
      ++bad;
      continue;
    }
    const std::string err = Check(q, e, t, r.value().rows);
    const auto& s = r.value().stats;
    if (!err.empty() || loads != s.scanned_partitions + s.speculative_loads) {
      std::fprintf(stderr, "%s #%zu (%s): %s loads=%lld scanned+speculative=%lld\n", name, i,
                   q.cls.c_str(), err.c_str(), static_cast<long long>(loads),
                   static_cast<long long>(s.scanned_partitions + s.speculative_loads));
      ++bad;
    }
  }
  std::fprintf(stderr, "selftest: serial storage identity on %s: %s\n", name,
               bad == 0 ? "ok" : "FAILED");
  return bad;
}

int SelfTest() {
  int bad = 0;
  // Every check passes on a correct answer and fails on each corruption.
  Workload w;
  {
    Rng rng(7);
    TableData a{"a_t", {}}, b{"b_t", {}};
    for (int64_t p = 0; p < 20; ++p) {
      Rows r;
      for (int64_t j = 0; j < 50; ++j) {
        const int64_t i = p * 50 + j;
        r.Push(i, 2 * i, rng.Uniform(0, 7), rng.Unit(), rng.Uniform(0, 99),
               "t" + std::to_string(rng.Uniform(0, 3)));
      }
      a.parts.push_back(std::move(r));
    }
    for (int64_t p = 0; p < 4; ++p) {
      Rows r;
      for (int64_t j = 0; j < 50; ++j) {
        const int64_t i = p * 50 + j;
        r.Push(i, 6 * i, rng.Uniform(0, 7), rng.Unit(), 0, "d");
      }
      b.parts.push_back(std::move(r));
    }
    w.tables = {std::move(a), std::move(b)};
  }
  auto add = [&w](QKind kind, Pred pred, int64_t k, size_t order_col, bool desc) {
    Query q;
    q.kind = kind;
    q.cls = "selftest";
    q.table = "a_t";
    q.pred = std::move(pred);
    q.k = k;
    q.order_col = order_col;
    q.desc = desc;
    if (kind == QKind::kJoin) {
      q.build_table = "b_t";
      q.build_pred = KeyRange(0, 600);
    }
    w.pool.push_back(std::move(q));
  };
  add(QKind::kFilter, KeyRange(100, 400), 0, kKey, true);
  add(QKind::kLimit, KeyRange(0, 1500), 7, kKey, true);
  add(QKind::kTopK, ValLt(0.5), 10, kKey, true);
  add(QKind::kSort, ValLt(0.2), 0, kVal, false);
  add(QKind::kAgg, ValLt(0.7), 0, kKey, true);
  add(QKind::kAggTopK, Pred(), 3, kKey, true);
  add(QKind::kJoin, Pred(), 0, kKey, true);

  Catalog catalog;
  for (const TableData& t : w.tables) catalog.RegisterTable(BuildTable(t, nullptr));
  QueryServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.max_in_flight = 2;
  QueryService svc(&catalog, cfg);
  const char* kinds[] = {"filter", "limit", "topk", "sort", "agg", "agg_topk", "join"};
  int caught = 0, total = 0;
  for (size_t i = 0; i < w.pool.size(); ++i) {
    const Query& q = w.pool[i];
    const TableData& t = *w.Find(q.table);
    const Expected e = ComputeExpected(q, t, w.Find("b_t"));
    auto r = svc.Execute(q.Plan());
    if (!r.ok() || !Check(q, e, t, r.value().rows).empty() || r.value().rows.size() < 3) {
      std::fprintf(stderr, "selftest: correct %s answer rejected or empty\n", kinds[i]);
      ++bad;
      continue;
    }
    const std::vector<snowprune::Row>& good = r.value().rows;
    const bool is_agg = q.kind == QKind::kAgg || q.kind == QKind::kAggTopK;
    std::vector<std::pair<std::string, std::vector<snowprune::Row>>> bad_copies;
    {
      auto rows = good;
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(rows.size() / 2));
      bad_copies.push_back({"one row dropped", rows});
    }
    {
      auto rows = good;
      snowprune::Row& row = rows[rows.size() / 2];
      if (is_agg) {
        row[0] = snowprune::Value(int64_t{1000});
      } else if (q.kind == QKind::kJoin) {
        row[kNumCols + kId] = snowprune::Value(row[kNumCols + kId].int64_value() + 1);
      } else {
        row[kKey] = snowprune::Value(row[kKey].int64_value() + 1);
      }
      bad_copies.push_back({"one key changed", rows});
    }
    {
      auto rows = good;
      rows.push_back(rows.front());
      bad_copies.push_back({"one extra row", rows});
    }
    if (is_agg) {
      auto rows = good;
      snowprune::Row& row = rows[rows.size() / 2];
      row[kSumVal] = snowprune::Value(row[kSumVal].AsDouble() * (1 + 1e-6));
      bad_copies.push_back({"float SUM off by 1e-6", rows});
    }
    for (const auto& [what, rows] : bad_copies) {
      ++total;
      const std::string err = Check(q, e, t, rows);
      if (err.empty()) {
        std::fprintf(stderr, "selftest: %s check accepted a corrupted answer (%s)\n",
                     kinds[i], what.c_str());
        ++bad;
      } else {
        ++caught;
        std::fprintf(stderr, "selftest: %-8s %-22s -> rejected: %s\n", kinds[i], what.c_str(),
                     err.c_str());
      }
    }
  }
  std::fprintf(stderr, "selftest: %d of %d corrupted answers rejected\n", caught, total);
  bad += SerialStorageCheck("selective_mix", MakeSelectiveMix(1), 120);
  bad += SerialStorageCheck("scan_heavy", MakeScanHeavy(1), 60);
  bad += SerialStorageCheck("dashboard_dml", MakeDashboard(1), 12);
  std::printf("selftest %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::SelfTest();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(v);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || opt.seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  perfbench::Bench bench(opt);
  return bench.Run();
}
