#include "model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "expr/builder.h"
#include "storage/column.h"

namespace perfbench {

using snowprune::DataType;
using snowprune::ExprPtr;
using snowprune::Field;
using snowprune::PlanPtr;

const char* ColName(size_t col) {
  static const char* const kNames[kNumCols] = {"id",  "key", "grp",
                                               "val", "amt", "tag"};
  return kNames[col];
}

snowprune::Schema TableSchema() {
  return snowprune::Schema(std::vector<Field>{
      {"id", DataType::kInt64, false},
      {"key", DataType::kInt64, false},
      {"grp", DataType::kInt64, false},
      {"val", DataType::kFloat64, false},
      {"amt", DataType::kInt64, false},
      {"tag", DataType::kString, false}});
}

void Rows::Push(int64_t id_v, int64_t key_v, int64_t grp_v, double val_v,
                int64_t amt_v, std::string tag_v) {
  id.push_back(id_v);
  key.push_back(key_v);
  grp.push_back(grp_v);
  val.push_back(val_v);
  amt.push_back(amt_v);
  tag.push_back(std::move(tag_v));
}

double Rows::Num(size_t col, size_t i) const {
  switch (col) {
    case kId: return static_cast<double>(id[i]);
    case kKey: return static_cast<double>(key[i]);
    case kGrp: return static_cast<double>(grp[i]);
    case kVal: return val[i];
    case kAmt: return static_cast<double>(amt[i]);
    default: return 0.0;
  }
}

size_t TableData::num_rows() const {
  size_t n = 0;
  for (const Rows& p : parts) n += p.size();
  return n;
}

snowprune::MicroPartition BuildPartition(snowprune::PartitionId pid,
                                         const Rows& rows) {
  std::vector<snowprune::ColumnVector> cols;
  cols.emplace_back(DataType::kInt64);
  cols.emplace_back(DataType::kInt64);
  cols.emplace_back(DataType::kInt64);
  cols.emplace_back(DataType::kFloat64);
  cols.emplace_back(DataType::kInt64);
  cols.emplace_back(DataType::kString);
  for (size_t i = 0; i < rows.size(); ++i) {
    cols[kId].AppendInt64(rows.id[i]);
    cols[kKey].AppendInt64(rows.key[i]);
    cols[kGrp].AppendInt64(rows.grp[i]);
    cols[kVal].AppendFloat64(rows.val[i]);
    cols[kAmt].AppendInt64(rows.amt[i]);
    cols[kTag].AppendString(rows.tag[i]);
  }
  return snowprune::MicroPartition(pid, std::move(cols));
}

bool Pred::Eval(const Rows& r, size_t i) const {
  switch (kind) {
    case kTrue: return true;
    case kKeyRange: return r.key[i] >= lo && r.key[i] <= hi;
    case kKeyIn:
      return std::find(keys.begin(), keys.end(), r.key[i]) != keys.end();
    case kTagEq: return r.tag[i] == tag;
    case kGrpEq: return r.grp[i] == lo;
    case kValLt: return r.val[i] < x;
    case kAmtGt: return r.amt[i] > lo;
    case kArithGt:
      return r.val[i] * 1000.0 + static_cast<double>(r.amt[i]) > x;
    case kAnd:
      for (const Pred& t : terms) {
        if (!t.Eval(r, i)) return false;
      }
      return true;
    case kOr:
      for (const Pred& t : terms) {
        if (t.Eval(r, i)) return true;
      }
      return false;
  }
  return false;
}

ExprPtr Pred::ToExpr() const {
  using namespace snowprune;  // NOLINT: expression builder DSL
  switch (kind) {
    case kTrue: return nullptr;
    case kKeyRange:
      if (lo == hi) return Eq(Col("key"), Lit(lo));
      return Between(Col("key"), Value(lo), Value(hi));
    case kKeyIn: {
      std::vector<Value> values;
      for (int64_t k : keys) values.emplace_back(k);
      return In(Col("key"), std::move(values));
    }
    case kTagEq: return Eq(Col("tag"), Lit(tag));
    case kGrpEq: return Eq(Col("grp"), Lit(lo));
    case kValLt: return Lt(Col("val"), Lit(x));
    case kAmtGt: return Gt(Col("amt"), Lit(lo));
    case kArithGt:
      return Gt(Add(Mul(Col("val"), Lit(1000.0)), Col("amt")), Lit(x));
    case kAnd:
    case kOr: {
      std::vector<ExprPtr> exprs;
      for (const Pred& t : terms) exprs.push_back(t.ToExpr());
      return kind == kAnd ? snowprune::And(std::move(exprs))
                          : snowprune::Or(std::move(exprs));
    }
  }
  return nullptr;
}

Pred KeyRange(int64_t lo, int64_t hi) {
  Pred p;
  p.kind = Pred::kKeyRange;
  p.lo = lo;
  p.hi = hi;
  return p;
}
Pred GrpEq(int64_t grp) {
  Pred p;
  p.kind = Pred::kGrpEq;
  p.lo = grp;
  return p;
}
Pred ValLt(double x) {
  Pred p;
  p.kind = Pred::kValLt;
  p.x = x;
  return p;
}
Pred TagEq(std::string tag) {
  Pred p;
  p.kind = Pred::kTagEq;
  p.tag = std::move(tag);
  return p;
}
Pred AmtGt(int64_t lo) {
  Pred p;
  p.kind = Pred::kAmtGt;
  p.lo = lo;
  return p;
}
Pred ArithGt(double x) {
  Pred p;
  p.kind = Pred::kArithGt;
  p.x = x;
  return p;
}
Pred AndOf(std::vector<Pred> terms) {
  Pred p;
  p.kind = Pred::kAnd;
  p.terms = std::move(terms);
  return p;
}
Pred OrOf(std::vector<Pred> terms) {
  Pred p;
  p.kind = Pred::kOr;
  p.terms = std::move(terms);
  return p;
}

PlanPtr Query::Plan() const {
  using namespace snowprune;  // NOLINT: plan builder API
  PlanPtr scan = ScanPlan(table, pred.ToExpr());
  switch (kind) {
    case QKind::kFilter: return scan;
    case QKind::kLimit: return LimitPlan(scan, k);
    case QKind::kTopK: return TopKPlan(scan, ColName(order_col), desc, k);
    case QKind::kSort: return SortPlan(scan, ColName(order_col), desc);
    case QKind::kAgg:
    case QKind::kAggTopK: {
      PlanPtr agg = AggregatePlan(
          scan, {ColName(group_col)},
          {{AggFunc::kCount, "", "cnt"},
           {AggFunc::kSum, "amt", "sum_amt"},
           {AggFunc::kSum, "val", "sum_val"},
           {AggFunc::kMin, "val", "min_val"},
           {AggFunc::kMax, "key", "max_key"},
           {AggFunc::kAvg, "val", "avg_val"}});
      if (kind == QKind::kAgg) return agg;
      return TopKPlan(agg, "sum_amt", /*descending=*/true, k);
    }
    case QKind::kJoin:
      return JoinPlan(scan, ScanPlan(build_table, build_pred.ToExpr()),
                      ColName(probe_key), ColName(build_key));
  }
  return scan;
}

const TableData* Workload::Find(const std::string& name) const {
  for (const TableData& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

namespace {

std::string Tag(int64_t i) { return "t" + std::to_string(i); }

/// Stratified quantile: the i-th of n equal strata, jittered by the seed,
/// so every seed draws each parameter distribution at the same quantiles
/// and pool-level means barely move between seeds.
double Strat(size_t i, size_t n, Rng* rng) {
  return (static_cast<double>(i) + rng->Unit()) / static_cast<double>(n);
}

/// Log-uniform in [lo, hi] at quantile q (the Fig. 4 selectivity skew:
/// most predicates select a sliver, a few select a lot).
int64_t LogUniform(double lo, double hi, double q) {
  return static_cast<int64_t>(std::exp(std::log(lo) + q * (std::log(hi) - std::log(lo))));
}

/// LIMIT k at quantile q, shaped like the paper's Fig. 6 k-CDF: small k
/// dominates, with a tail of large k.
int64_t KFromCdf(double q, int64_t k_max) {
  int64_t k = q < 0.2 ? 1 : q < 0.55 ? 10 : q < 0.85 ? 100 : q < 0.95 ? 1000
                                                                  : 10000;
  return std::min(k, k_max);
}

}  // namespace

Workload MakeSelectiveMix(uint64_t seed) {
  constexpr size_t kParts = 3000, kRowsPer = 100;
  constexpr int64_t kN = static_cast<int64_t>(kParts * kRowsPer);
  constexpr int64_t kMaxKey = 2 * kN;
  Rng rng(seed * 0x100000001b3ULL + 1);
  Workload w;
  // sorted_t: key = 2 * row, so every partition covers a disjoint key range.
  // clustered_t: partition p holds keys in [200p, 200p + 300): neighbours
  // overlap, as after natural clustering without a perfect sort.
  TableData sorted{"sorted_t", {}}, clustered{"clustered_t", {}};
  for (size_t p = 0; p < kParts; ++p) {
    Rows s, c;
    for (size_t r = 0; r < kRowsPer; ++r) {
      const int64_t i = static_cast<int64_t>(p * kRowsPer + r);
      s.Push(i, 2 * i, rng.Uniform(0, 63), rng.Unit(), rng.Uniform(0, 999),
             Tag(rng.Uniform(0, 15)));
      c.Push(i, static_cast<int64_t>(p) * 200 + rng.Uniform(0, 299),
             rng.Uniform(0, 63), rng.Unit(), rng.Uniform(0, 999),
             Tag(rng.Uniform(0, 15)));
    }
    sorted.parts.push_back(std::move(s));
    clustered.parts.push_back(std::move(c));
  }
  // dim_t: the selective build side, keys 150 * i (all inside both probe
  // tables' key domains).
  TableData dim{"dim_t", {}};
  for (size_t p = 0; p < 40; ++p) {
    Rows d;
    for (size_t r = 0; r < 100; ++r) {
      const int64_t i = static_cast<int64_t>(p * 100 + r);
      d.Push(i, 150 * i, rng.Uniform(0, 63), rng.Unit(), rng.Uniform(0, 999),
             Tag(rng.Uniform(0, 15)));
    }
    dim.parts.push_back(std::move(d));
  }
  w.tables = {std::move(sorted), std::move(clustered), std::move(dim)};

  auto table_for = [](size_t i) {
    return i % 2 == 0 ? std::string("sorted_t") : std::string("clustered_t");
  };
  auto add = [&w](Query q) { w.pool.push_back(std::move(q)); };
  constexpr size_t kPoint = 80, kRange = 100, kIn = 40, kOr = 20, kLimit = 60,
                   kTopK = 60, kJoin = 40;
  for (size_t i = 0; i < kPoint; ++i) {
    Query q;
    q.cls = "point";
    q.table = table_for(i);
    const int64_t key = rng.Uniform(0, kN - 1) * 2;
    q.pred = KeyRange(key, key);
    add(q);
  }
  for (size_t i = 0; i < kRange; ++i) {
    Query q;
    q.cls = "range";
    q.table = table_for(i);
    const int64_t width = LogUniform(2, 40000, Strat(i, kRange, &rng));
    const int64_t lo = rng.Uniform(0, kMaxKey - width);
    q.pred = KeyRange(lo, lo + width);
    add(q);
  }
  for (size_t i = 0; i < kIn; ++i) {
    Query q;
    q.cls = "in_list";
    q.table = table_for(i);
    q.pred.kind = Pred::kKeyIn;
    const int64_t n = 5 + static_cast<int64_t>(16 * Strat(i, kIn, &rng));
    for (int64_t j = 0; j < n; ++j) q.pred.keys.push_back(rng.Uniform(0, kN - 1) * 2);
    add(q);
  }
  for (size_t i = 0; i < kOr; ++i) {
    Query q;
    q.cls = "or";
    q.table = table_for(i);
    std::vector<Pred> terms;
    for (size_t j = 0; j < 2 + i % 2; ++j) {
      const int64_t width = LogUniform(2, 2000, Strat(i, kOr, &rng));
      const int64_t lo = rng.Uniform(0, kMaxKey - width);
      terms.push_back(KeyRange(lo, lo + width));
    }
    q.pred = OrOf(std::move(terms));
    add(q);
  }
  for (size_t i = 0; i < kLimit; ++i) {
    Query q;
    q.cls = "limit";
    q.kind = QKind::kLimit;
    q.table = i % 3 == 0 ? "sorted_t" : "clustered_t";
    const int64_t width = LogUniform(500, 100000, Strat(i, kLimit, &rng));
    const int64_t lo = rng.Uniform(0, kMaxKey - width);
    q.pred = KeyRange(lo, lo + width);
    if (i % 4 == 3) q.pred = AndOf({q.pred, ValLt(0.5)});
    q.k = KFromCdf(Strat((i * 7) % kLimit, kLimit, &rng), 10000);
    add(q);
  }
  for (size_t i = 0; i < kTopK; ++i) {
    Query q;
    q.cls = "topk";
    q.kind = QKind::kTopK;
    q.k = KFromCdf(Strat((i * 7) % kTopK, kTopK, &rng), 1000);
    if (i % 2 == 0) {
      q.table = "sorted_t";
      q.pred = TagEq(Tag(rng.Uniform(0, 15)));
      q.desc = i % 4 == 0;
    } else {
      q.table = "clustered_t";
      q.pred = ValLt(0.1 + 0.4 * Strat(i, kTopK, &rng));
      q.desc = i % 4 == 1;
    }
    add(q);
  }
  for (size_t i = 0; i < kJoin; ++i) {
    Query q;
    q.cls = "join";
    q.kind = QKind::kJoin;
    q.table = table_for(i);
    q.build_table = "dim_t";
    const int64_t n = 1 + static_cast<int64_t>(30 * Strat(i, kJoin, &rng));
    const int64_t lo = 150 * rng.Uniform(0, 3999 - n);
    q.build_pred = KeyRange(lo, lo + 150 * n);
    add(q);
  }
  Shuffle(&w.pool, &rng);
  return w;
}

Workload MakeScanHeavy(uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 2);
  Workload w;
  // random_t: no layout at all, so min/max metadata prunes almost nothing.
  TableData random{"random_t", {}};
  for (size_t p = 0; p < 40; ++p) {
    Rows r;
    for (size_t j = 0; j < 1000; ++j) {
      const int64_t i = static_cast<int64_t>(p * 1000 + j);
      r.Push(i, rng.Uniform(0, 999999), rng.Uniform(0, 255), rng.Unit(),
             rng.Uniform(0, 29999), Tag(rng.Uniform(0, 15)));
    }
    random.parts.push_back(std::move(r));
  }
  // wide_d: a large, unfiltered build side keyed 0..29999 (joined on
  // random_t.amt).
  TableData wide{"wide_d", {}};
  for (size_t p = 0; p < 30; ++p) {
    Rows r;
    for (size_t j = 0; j < 1000; ++j) {
      const int64_t i = static_cast<int64_t>(p * 1000 + j);
      r.Push(i, i, rng.Uniform(0, 255), rng.Unit(), rng.Uniform(0, 999),
             Tag(rng.Uniform(0, 15)));
    }
    wide.parts.push_back(std::move(r));
  }
  w.tables = {std::move(random), std::move(wide)};

  auto add = [&w](Query q) { w.pool.push_back(std::move(q)); };
  for (size_t i = 0; i < 3; ++i) {
    Query q;
    q.cls = "full_scan";
    q.table = "random_t";
    add(q);
  }
  for (size_t i = 0; i < 12; ++i) {
    Query q;
    q.cls = "wide_filter";
    q.table = "random_t";
    q.pred = ValLt(0.2 + 0.4 * Strat(i, 12, &rng));
    add(q);
  }
  for (size_t i = 0; i < 9; ++i) {
    Query q;
    q.cls = "arith_filter";
    q.table = "random_t";
    q.pred = ArithGt(9000.0 + 12000.0 * Strat(i, 9, &rng));
    add(q);
  }
  for (size_t i = 0; i < 12; ++i) {
    Query q;
    q.cls = "group_by";
    q.kind = QKind::kAgg;
    q.table = "random_t";
    q.pred = ValLt(0.3 + 0.6 * Strat(i, 12, &rng));
    add(q);
  }
  for (size_t i = 0; i < 6; ++i) {
    Query q;
    q.cls = "agg_topk";
    q.kind = QKind::kAggTopK;
    q.table = "random_t";
    q.pred = ValLt(0.5 + 0.5 * Strat(i, 6, &rng));
    q.k = i % 3 == 0 ? 5 : i % 3 == 1 ? 10 : 20;
    add(q);
  }
  for (size_t i = 0; i < 9; ++i) {
    Query q;
    q.cls = "sort";
    q.kind = QKind::kSort;
    q.table = "random_t";
    q.pred = ValLt(0.02 + 0.04 * Strat(i, 9, &rng));
    q.order_col = i % 3 == 2 ? kVal : kKey;
    q.desc = i % 2 == 0;
    add(q);
  }
  for (size_t i = 0; i < 9; ++i) {
    Query q;
    q.cls = "wide_join";
    q.kind = QKind::kJoin;
    q.table = "random_t";
    q.pred = ValLt(0.05 + 0.1 * Strat(i, 9, &rng));
    q.build_table = "wide_d";
    q.probe_key = kAmt;
    q.build_key = kKey;
    add(q);
  }
  Shuffle(&w.pool, &rng);
  return w;
}

Rows MakeAppendRows(Rng* rng, size_t n, int64_t* next_id, int64_t* next_key,
                    int64_t key_step, int64_t num_tags, int64_t amt_max) {
  Rows r;
  for (size_t j = 0; j < n; ++j) {
    r.Push((*next_id)++, *next_key, rng->Uniform(0, 49), rng->Unit(),
           rng->Uniform(0, amt_max), Tag(rng->Uniform(0, num_tags - 1)));
    *next_key += key_step;
  }
  return r;
}

Workload MakeDashboard(uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 3);
  Workload w;
  // events: time-ordered (key = 10 * arrival), so "latest N" top-k prunes to
  // the newest partitions and the predicate cache remembers which.
  TableData events{"events", {}};
  int64_t next_id = 0, next_key = 0;
  for (size_t p = 0; p < 200; ++p) {
    events.parts.push_back(
        MakeAppendRows(&rng, 500, &next_id, &next_key, 10, 12, 999));
  }
  TableData orders{"orders", {}};
  int64_t order_id = 10000000, order_key = 0;
  for (size_t p = 0; p < 100; ++p) {
    Rows r = MakeAppendRows(&rng, 500, &order_id, &order_key, 1, 12, 9999);
    for (int64_t& k : r.key) k = rng.Uniform(0, 999999);
    orders.parts.push_back(std::move(r));
  }
  w.tables = {std::move(events), std::move(orders)};

  // Eight "latest N" shapes over distinct groups (numeric, so the jit tier
  // can compile them once promoted), two recent-window aggregates over
  // events, two filtered aggregates over orders. Two thirds of the queries
  // are fast top-k lookups, so the median latency falls inside that class
  // rather than in the gap between the two classes.
  std::vector<int64_t> groups(50);
  for (int64_t i = 0; i < 50; ++i) groups[static_cast<size_t>(i)] = i;
  Shuffle(&groups, &rng);
  for (size_t i = 0; i < 8; ++i) {
    Query q;
    q.cls = "latest_n";
    q.kind = QKind::kTopK;
    q.table = "events";
    q.pred = GrpEq(groups[i]);
    q.k = i % 2 == 0 ? 10 : 50;
    q.desc = true;
    w.pool.push_back(std::move(q));
  }
  const int64_t base_max_key = next_key - 10;
  for (size_t i = 0; i < 2; ++i) {
    Query q;
    q.cls = "recent_agg";
    q.kind = QKind::kAgg;
    q.table = "events";
    const int64_t window = 10 * (5000 + 30000 * static_cast<int64_t>(i)) +
                           10 * rng.Uniform(0, 999);
    q.pred = KeyRange(base_max_key - window, INT64_MAX);
    q.group_col = kGrp;
    w.pool.push_back(std::move(q));
  }
  for (size_t i = 0; i < 2; ++i) {
    Query q;
    q.cls = "orders_agg";
    q.kind = QKind::kAgg;
    q.table = "orders";
    q.pred = AmtGt(2000 + 4000 * static_cast<int64_t>(i) + rng.Uniform(0, 999));
    q.group_col = kTag;
    w.pool.push_back(std::move(q));
  }
  return w;
}

TableData ProbeTable() {
  TableData t{"probe_sorted", {}};
  for (int64_t p = 0; p < 20; ++p) {
    Rows r;
    for (int64_t j = 0; j < 100; ++j) {
      const int64_t i = p * 100 + j;
      r.Push(i, i, 0, 0.5, 0, "p");
    }
    t.parts.push_back(std::move(r));
  }
  return t;
}

}  // namespace perfbench
