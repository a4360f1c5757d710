#ifndef PERFBENCH_RESULTS_H_
#define PERFBENCH_RESULTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"
#include "workloads.h"

namespace perfbench {

/// Order-insensitive digest of a result: row count plus a multiset hash of
/// the rows, with doubles rounded to 6 significant digits before hashing so
/// plans that sum in another order still agree.
struct RowsDigest {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const RowsDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const RowsDigest& o) const { return !(*this == o); }
};

RowsDigest DigestRows(const std::vector<taurus::Row>& rows);
std::string HexDigest(uint64_t hash);

/// Per-key reference results, indexed like StatementNames(spec).
using ExpectedSet = std::vector<std::optional<RowsDigest>>;

/// Path of the committed reference file of a pass workload's dataset and
/// scale, e.g. <dir>/tpch_sf0.006.tsv.
std::string ExpectedPath(const std::string& dir, const WorkloadSpec& spec);

/// Reads the committed references; fails when the file is missing or does
/// not cover every statement.
taurus::Result<ExpectedSet> LoadExpected(const std::string& dir,
                                         const WorkloadSpec& spec);

/// Computes references on a fresh engine: every statement on the forced
/// MySQL path, cross-checked against kAuto (statements whose MySQL plan
/// cannot finish take kAuto, with the reason). Prints each disagreement.
/// With `out_path` non-empty, writes the reference file there.
taurus::Result<ExpectedSet> ComputeExpected(const WorkloadSpec& spec,
                                            const std::string& out_path);

}  // namespace perfbench

#endif  // PERFBENCH_RESULTS_H_
