#include "reference.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

namespace perfbench {

using snowprune::Row;
using snowprune::Value;

namespace {

std::string GroupText(const Rows& r, size_t col, size_t i) {
  return col == kTag ? r.tag[i] : std::to_string(static_cast<int64_t>(r.Num(col, i)));
}

bool RelClose(double got, long double want) {
  const long double diff = std::fabs(static_cast<long double>(got) - want);
  const long double scale = std::max(std::fabs(want), static_cast<long double>(1e-300));
  return diff <= kFloatTolerance * scale;
}

/// The result row equals the copy's row, column by column.
bool SameRow(const Row& row, const Rows& p, size_t off) {
  return row.size() == kNumCols && row[kId] == Value(p.id[off]) &&
         row[kKey] == Value(p.key[off]) && row[kGrp] == Value(p.grp[off]) &&
         row[kVal] == Value(p.val[off]) && row[kAmt] == Value(p.amt[off]) &&
         row[kTag] == Value(p.tag[off]);
}

/// Index of `id` in the expected (sorted) ids, or -1.
int64_t FindId(const Expected& e, int64_t id) {
  auto it = std::lower_bound(e.ids.begin(), e.ids.end(), id);
  if (it == e.ids.end() || *it != id) return -1;
  return it - e.ids.begin();
}

/// Every row is a distinct matching row whose contents equal the copy.
std::string CheckMatchingRows(const Expected& e, const TableData& t,
                              const std::vector<Row>& rows) {
  std::vector<int64_t> seen;
  seen.reserve(rows.size());
  for (const Row& row : rows) {
    if (row.empty() || !row[kId].is_int64()) return "row without an int id";
    const int64_t id = row[kId].int64_value();
    const int64_t at = FindId(e, id);
    if (at < 0) return "row id " + std::to_string(id) + " does not match the predicate";
    const Loc& loc = e.locs[static_cast<size_t>(at)];
    if (!SameRow(row, t.parts[loc.part], loc.off)) {
      return "row id " + std::to_string(id) + " has wrong contents";
    }
    seen.push_back(id);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "duplicate row id";
  }
  return "";
}

std::string SizeError(size_t got, size_t want) {
  return "returned " + std::to_string(got) + " rows, expected " +
         std::to_string(want);
}

/// Order holds, and the order keys equal the expected ones position by
/// position — with the order holding, that is multiset equality.
std::string CheckOrder(const std::vector<Row>& rows, size_t col, bool desc,
                       const std::vector<double>& want) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() <= col || !rows[i][col].is_numeric()) return "order key missing";
    const double v = rows[i][col].AsDouble();
    if (i > 0) {
      const double prev = rows[i - 1][col].AsDouble();
      if (desc ? v > prev : v < prev) return "order does not hold at row " + std::to_string(i);
    }
    if (i < want.size() && v != want[i]) {
      return "order key " + std::to_string(v) + " at row " + std::to_string(i) +
             ", expected " + std::to_string(want[i]);
    }
  }
  return "";
}

std::string CheckGroups(const Expected& e, const std::vector<Row>& rows) {
  std::set<std::string> seen;
  for (const Row& row : rows) {
    if (row.size() != kAggCols) return "aggregate row has wrong width";
    const Value& g = row[0];
    const std::string key = g.is_string() ? g.string_value()
                            : g.is_int64() ? std::to_string(g.int64_value())
                                           : "?";
    auto it = e.groups.find(key);
    if (it == e.groups.end()) return "unexpected group " + key;
    if (!seen.insert(key).second) return "duplicate group " + key;
    const GroupRef& ref = it->second;
    for (size_t c = kCnt; c < kAggCols; ++c) {
      if (!row[c].is_numeric()) return "non-numeric aggregate in group " + key;
    }
    if (!row[kCnt].is_int64() || row[kCnt].int64_value() != ref.cnt) {
      return "COUNT wrong in group " + key;
    }
    if (row[kSumAmt].AsDouble() != static_cast<double>(ref.sum_amt)) {
      return "integer SUM wrong in group " + key;
    }
    if (!RelClose(row[kSumVal].AsDouble(), ref.sum_val)) {
      return "float SUM wrong in group " + key;
    }
    if (row[kMinVal].AsDouble() != ref.min_val) return "MIN wrong in group " + key;
    if (!row[kMaxKey].is_int64() || row[kMaxKey].int64_value() != ref.max_key) {
      return "MAX wrong in group " + key;
    }
    if (!RelClose(row[kAvgVal].AsDouble(),
                  ref.sum_val / static_cast<long double>(ref.cnt))) {
      return "AVG wrong in group " + key;
    }
  }
  return "";
}

}  // namespace

Expected ComputeExpected(const Query& q, const TableData& t,
                         const TableData* build) {
  Expected e;
  e.part_has_match.assign(t.parts.size(), 0);
  std::vector<std::pair<int64_t, Loc>> matches;
  for (size_t p = 0; p < t.parts.size(); ++p) {
    const Rows& rows = t.parts[p];
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!q.pred.Eval(rows, i)) continue;
      e.part_has_match[p] = 1;
      matches.push_back({rows.id[i], Loc{static_cast<uint32_t>(p),
                                         static_cast<uint32_t>(i)}});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  e.ids.reserve(matches.size());
  e.locs.reserve(matches.size());
  for (const auto& m : matches) {
    e.ids.push_back(m.first);
    e.locs.push_back(m.second);
  }

  switch (q.kind) {
    case QKind::kFilter:
    case QKind::kLimit:
      break;
    case QKind::kTopK:
    case QKind::kSort: {
      for (const Loc& l : e.locs) e.order_keys.push_back(t.parts[l.part].Num(q.order_col, l.off));
      if (q.desc) {
        std::sort(e.order_keys.begin(), e.order_keys.end(), std::greater<double>());
      } else {
        std::sort(e.order_keys.begin(), e.order_keys.end());
      }
      if (q.kind == QKind::kTopK && e.order_keys.size() > static_cast<size_t>(q.k)) {
        e.order_keys.resize(static_cast<size_t>(q.k));
      }
      break;
    }
    case QKind::kAgg:
    case QKind::kAggTopK: {
      for (const Loc& l : e.locs) {
        const Rows& r = t.parts[l.part];
        GroupRef& g = e.groups[GroupText(r, q.group_col, l.off)];
        if (g.cnt == 0) {
          g.min_val = r.val[l.off];
          g.max_key = r.key[l.off];
        }
        ++g.cnt;
        g.sum_amt += r.amt[l.off];
        g.sum_val += r.val[l.off];
        g.min_val = std::min(g.min_val, r.val[l.off]);
        g.max_key = std::max(g.max_key, r.key[l.off]);
      }
      if (q.kind == QKind::kAggTopK) {
        for (const auto& [key, g] : e.groups) {
          e.order_keys.push_back(static_cast<double>(g.sum_amt));
        }
        std::sort(e.order_keys.begin(), e.order_keys.end(), std::greater<double>());
        if (e.order_keys.size() > static_cast<size_t>(q.k)) {
          e.order_keys.resize(static_cast<size_t>(q.k));
        }
      }
      break;
    }
    case QKind::kJoin: {
      std::unordered_map<int64_t, std::vector<int64_t>> build_ids;
      for (const Rows& rows : build->parts) {
        for (size_t i = 0; i < rows.size(); ++i) {
          if (q.build_pred.Eval(rows, i)) {
            build_ids[static_cast<int64_t>(rows.Num(q.build_key, i))].push_back(rows.id[i]);
          }
        }
      }
      for (const Loc& l : e.locs) {
        const Rows& r = t.parts[l.part];
        auto it = build_ids.find(static_cast<int64_t>(r.Num(q.probe_key, l.off)));
        if (it == build_ids.end()) continue;
        for (int64_t b : it->second) e.pairs.push_back({r.id[l.off], b});
      }
      std::sort(e.pairs.begin(), e.pairs.end());
      break;
    }
  }
  return e;
}

std::string Check(const Query& q, const Expected& e, const TableData& t,
                  const std::vector<Row>& rows) {
  const size_t matches = e.ids.size();
  switch (q.kind) {
    case QKind::kFilter: {
      if (rows.size() != matches) return SizeError(rows.size(), matches);
      return CheckMatchingRows(e, t, rows);
    }
    case QKind::kLimit: {
      const size_t want = std::min(matches, static_cast<size_t>(q.k));
      if (rows.size() != want) return SizeError(rows.size(), want);
      return CheckMatchingRows(e, t, rows);
    }
    case QKind::kTopK:
    case QKind::kSort: {
      const size_t want = e.order_keys.size();
      if (rows.size() != want) return SizeError(rows.size(), want);
      std::string err = CheckMatchingRows(e, t, rows);
      if (!err.empty()) return err;
      return CheckOrder(rows, q.order_col, q.desc, e.order_keys);
    }
    case QKind::kAgg: {
      if (rows.size() != e.groups.size()) return SizeError(rows.size(), e.groups.size());
      return CheckGroups(e, rows);
    }
    case QKind::kAggTopK: {
      const size_t want = e.order_keys.size();
      if (rows.size() != want) return SizeError(rows.size(), want);
      std::string err = CheckGroups(e, rows);
      if (!err.empty()) return err;
      return CheckOrder(rows, kSumAmt, /*desc=*/true, e.order_keys);
    }
    case QKind::kJoin: {
      if (rows.size() != e.pairs.size()) return SizeError(rows.size(), e.pairs.size());
      std::vector<std::pair<int64_t, int64_t>> got;
      got.reserve(rows.size());
      for (const Row& row : rows) {
        if (row.size() != 2 * kNumCols || !row[kId].is_int64() ||
            !row[kNumCols + kId].is_int64()) {
          return "join row has wrong shape";
        }
        got.push_back({row[kId].int64_value(), row[kNumCols + kId].int64_value()});
      }
      std::sort(got.begin(), got.end());
      if (got != e.pairs) return "join (probe id, build id) pairs differ";
      return "";
    }
  }
  return "unknown query kind";
}

}  // namespace perfbench
