// The benchmark's own data and query model: seeded table contents, a small
// predicate language the benchmark can both evaluate itself and lower to
// the library's expressions, and the three workloads' table sets and query
// pools. Nothing here uses src/workload, so a change there cannot alter
// what is measured.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "storage/partition.h"
#include "storage/schema.h"

namespace perfbench {

/// splitmix64: portable, so one seed gives the same inputs on any build.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Fisher-Yates shuffle driven by the benchmark's own generator.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Next() % i)]);
  }
}

/// Every generated table has the same six columns, in this order.
enum ColIdx : size_t { kId, kKey, kGrp, kVal, kAmt, kTag, kNumCols };
const char* ColName(size_t col);
snowprune::Schema TableSchema();

/// One micro-partition's rows: the benchmark's own copy, from which the
/// reference answers are computed. `id` is unique within a table.
struct Rows {
  std::vector<int64_t> id, key, grp, amt;
  std::vector<double> val;
  std::vector<std::string> tag;

  size_t size() const { return id.size(); }
  void Push(int64_t id_v, int64_t key_v, int64_t grp_v, double val_v,
            int64_t amt_v, std::string tag_v);
  /// A numeric column (kId, kKey, kGrp, kVal, kAmt) as a double; every
  /// integer the generators produce is below 2^53, so this is exact.
  double Num(size_t col, size_t i) const;
};

struct TableData {
  std::string name;
  std::vector<Rows> parts;
  size_t num_rows() const;
};

/// Builds the library's micro-partition (columns plus zone maps).
snowprune::MicroPartition BuildPartition(snowprune::PartitionId pid,
                                         const Rows& rows);

/// A predicate the benchmark evaluates itself (Eval) and lowers to the
/// library's expression tree (ToExpr).
struct Pred {
  enum Kind { kTrue, kKeyRange, kKeyIn, kTagEq, kGrpEq, kValLt, kAmtGt,
              kArithGt, kAnd, kOr };
  Kind kind = kTrue;
  int64_t lo = 0, hi = 0;      ///< kKeyRange (lo == hi lowers to '='); kGrpEq, kAmtGt use lo.
  std::vector<int64_t> keys;   ///< kKeyIn.
  double x = 0;                ///< kValLt; kArithGt: val * 1000 + amt > x.
  std::string tag;             ///< kTagEq.
  std::vector<Pred> terms;     ///< kAnd / kOr.

  bool Eval(const Rows& rows, size_t i) const;
  /// Null for kTrue. A fresh tree each call: plans bind their expressions,
  /// so two plans never share one.
  snowprune::ExprPtr ToExpr() const;
};

Pred KeyRange(int64_t lo, int64_t hi);
Pred ValLt(double x);
Pred TagEq(std::string tag);
Pred GrpEq(int64_t grp);
Pred AmtGt(int64_t lo);
Pred ArithGt(double x);
Pred AndOf(std::vector<Pred> terms);
Pred OrOf(std::vector<Pred> terms);

/// Query shapes. kAgg groups by `group_col` and computes the fixed
/// aggregate list below; kAggTopK orders that by sum_amt DESC LIMIT k.
enum class QKind { kFilter, kLimit, kTopK, kSort, kAgg, kAggTopK, kJoin };

/// Output columns of kAgg/kAggTopK after the group column.
enum AggOut : size_t { kCnt = 1, kSumAmt, kSumVal, kMinVal, kMaxKey, kAvgVal,
                       kAggCols };

struct Query {
  QKind kind = QKind::kFilter;
  std::string cls;    ///< Query class, for the README's mix table.
  std::string table;  ///< Scan (probe) table.
  Pred pred;
  int64_t k = 0;      ///< kLimit, kTopK, kAggTopK.
  size_t order_col = kKey;
  bool desc = true;
  size_t group_col = kGrp;
  // kJoin: probe = table/pred, build = build_table/build_pred.
  std::string build_table;
  Pred build_pred;
  size_t probe_key = kKey, build_key = kKey;

  snowprune::PlanPtr Plan() const;
};

/// A workload's base tables and its query pool. A round runs every pool
/// query once.
struct Workload {
  std::vector<TableData> tables;
  std::vector<Query> pool;
  const TableData* Find(const std::string& name) const;
};

Workload MakeSelectiveMix(uint64_t seed);
Workload MakeScanHeavy(uint64_t seed);

/// dashboard_dml: `events` (top-k and aggregate shapes; appends, in-place
/// UPDATE of amt, periodic CREATE OR REPLACE) and `orders` (aggregate
/// shapes; in-place DELETE plus appends). `pool` holds the distinct shapes.
Workload MakeDashboard(uint64_t seed);
/// The fault probe's table: fixed contents, independent of the seed.
TableData ProbeTable();

/// Fresh rows for an append, with ids from *next_id and keys from *next_key.
Rows MakeAppendRows(Rng* rng, size_t n, int64_t* next_id, int64_t* next_key,
                    int64_t key_step, int64_t num_tags, int64_t amt_max);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
