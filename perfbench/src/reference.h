// Reference answers computed from the benchmark's own copy of the rows, and
// the per-shape checks a query result must pass. Nothing here runs the
// library's evaluator or an unpruned engine.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "model.h"

namespace perfbench {

struct Loc {
  uint32_t part = 0, off = 0;
};

/// Per-group aggregates; integer sums are exact, float sums in long double.
struct GroupRef {
  int64_t cnt = 0;
  int64_t sum_amt = 0;
  long double sum_val = 0;
  double min_val = 0;
  int64_t max_key = 0;
};

struct Expected {
  /// Matching (probe) rows, sorted by id, with their place in the copy.
  std::vector<int64_t> ids;
  std::vector<Loc> locs;
  /// kTopK/kSort: order keys of the expected output, in output order.
  /// kAggTopK: the top-k sum_amt values, descending.
  std::vector<double> order_keys;
  /// kJoin: sorted (probe id, build id) pairs.
  std::vector<std::pair<int64_t, int64_t>> pairs;
  /// kAgg/kAggTopK: group key (as text) -> aggregates.
  std::map<std::string, GroupRef> groups;
  /// Per partition of the scanned table: does any row match the predicate?
  std::vector<uint8_t> part_has_match;
};

Expected ComputeExpected(const Query& q, const TableData& table,
                         const TableData* build);

/// Empty when `rows` is a correct answer to `q`; otherwise what is wrong.
std::string Check(const Query& q, const Expected& e, const TableData& table,
                  const std::vector<snowprune::Row>& rows);

/// Relative float tolerance for float SUM and AVG: parallel pre-aggregation
/// legitimately reorders additions.
inline constexpr double kFloatTolerance = 1e-9;

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
