// The paper's published values, each written once.
//
// The ledger holds the headline micro-benchmark rows (Figs 1-13, 26 and
// 27) and the paper columns of Tables 1-6. bench/calibrate prints every
// micro row next to ours, tests/calibration_test.cpp asserts each row's
// band, and the application harnesses print their paper columns from the
// tables here; EXPERIMENTS.md and DESIGN.md quote the printed artifacts
// rather than retyping a number (tests/doc_quotes_test.py checks the
// quotes). Units follow the paper: us, MB/s with MB = 2^20 bytes, MB of
// memory, seconds.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "cluster/cluster.hpp"

namespace mns::paper {

/// Why a micro row is in the ledger (DESIGN.md section 4, EXPERIMENTS.md
/// "Known deviations").
enum class Kind {
  kTarget,     // the model reproduces it: a calibration target
  kDeviation,  // a documented miss, held by its band so it cannot drift
};

/// What the paper states: a value, or a bound ours should respect.
enum class Stated { kValue, kBelow, kAbove };

/// The interval calibration_test asserts ours lies in. A percentage or
/// open band excludes its ends; an absolute band (EXPECT_NEAR's) includes
/// them.
struct Band {
  enum class Form { kPct, kAbs, kOpen };
  Form form;
  double a;      // kPct: percent of the paper value; kAbs: tolerance;
                 // kOpen: lower end
  double b = 0;  // kOpen: upper end

  static constexpr Band pct(double percent) { return {Form::kPct, percent}; }
  static constexpr Band abs(double tol) { return {Form::kAbs, tol}; }
  static constexpr Band open(double lo, double hi) {
    return {Form::kOpen, lo, hi};
  }

  constexpr double lo(double paper) const {
    if (form == Form::kPct) return paper * (1.0 - a / 100.0);
    if (form == Form::kAbs) return paper - a;
    return a;
  }
  constexpr double hi(double paper) const {
    if (form == Form::kPct) return paper * (1.0 + a / 100.0);
    if (form == Form::kAbs) return paper + a;
    return b;
  }
  bool contains(double ours, double paper) const {
    if (form == Form::kAbs) return std::fabs(ours - paper) <= a;
    return ours > lo(paper) && ours < hi(paper);
  }
};

/// One headline micro-benchmark value of the paper.
struct MicroRow {
  const char* id;      // stable name, also calibration_test's case name
  const char* figure;  // the figure and what it measures
  cluster::Net net;    // the figure's series
  std::uint64_t x;     // message size in bytes; node count for Fig 13
  Stated stated;
  double paper;        // the value or bound, in `unit`
  const char* unit;
  Kind kind;
  Band band;
  /// Ours: runs the figure's kernel (src/microbench) at (net, x).
  double (*measure)(cluster::Net net, std::uint64_t x);
};

/// Every micro row, in figure order.
std::span<const MicroRow> micro();

/// Table 2: class-B seconds of one app at 2, 4 and 8 nodes on each net.
struct ScalingRow {
  const char* app;
  // [IBA, Myri, QSN][2, 4, 8 nodes]; kNotRun where the paper has no run.
  std::array<std::array<double, 3>, 3> seconds;
};
inline constexpr double kNotRun = -1;
std::span<const ScalingRow> table2();
/// Table 2's seconds for (app, net, nodes); throws std::out_of_range for
/// a cell the table does not hold.
double table2_seconds(std::string_view app, cluster::Net net,
                      std::size_t nodes);

/// A row of a profiling table (Tables 1 and 3-6): the app, the node
/// count of the paper's profiled run, and the published columns in the
/// table's order (trailing unused columns are 0).
struct ProfileRow {
  const char* app;
  std::size_t nodes;
  std::array<double, 4> paper;
};
/// Table 1, messages the busiest rank sends: <2K, 2K-16K, 16K-1M, >1M.
std::span<const ProfileRow> table1();
/// Table 3, busiest rank: isend calls, mean isend bytes, irecv calls,
/// mean irecv bytes.
std::span<const ProfileRow> table3();
/// Table 4, all ranks: buffer reuse %, byte-weighted buffer reuse %.
std::span<const ProfileRow> table4();
/// Table 5, busiest rank: collective calls, % of MPI calls, % of volume.
std::span<const ProfileRow> table5();
/// Table 6, 2 processes per node, all ranks: intra-node share of
/// point-to-point calls and of volume, %.
std::span<const ProfileRow> table6();

}  // namespace mns::paper
