// Shared helpers for the per-figure/table bench binaries.
//
// Every binary prints one paper artifact: a header naming the figure or
// table, then aligned columns (or CSV with --csv). Where the paper gives
// a value, it is printed alongside ours.
//
// Every binary takes --csv and --jobs. The application harnesses run each
// cell (a registry app on one cluster configuration) through run_cells
// and also take the flags it applies: --faults (reseeded by --seed, which
// needs it), --partitions and --max-sim-time. A binary exits 2 on any
// flag it does not honour.
#pragma once

#include <algorithm>
#include <array>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "microbench/microbench.hpp"
#include "prof/recorder.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/bytes.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace mns::bench {

inline const std::vector<cluster::Net> kAllNets{
    cluster::Net::kInfiniBand, cluster::Net::kMyrinet,
    cluster::Net::kQuadrics};

struct Output {
  bool csv = false;
  // --jobs N: fan independent simulation points over N threads (0 =
  // whole machine). Output is bit-identical for every N; see
  // sweep/sweep_runner.hpp.
  int jobs = 1;
  // The cell flags, read by parse_cell_output and applied by run_cells.
  // --faults SPEC (reseeded by --seed N, which exits 2 without it):
  // deterministic chaos plan (src/fault); published artifacts run
  // without one.
  fault::FaultPlan faults;
  // --partitions N: PDES partitions per cell (ClusterConfig::partitions);
  // every N yields the bytes of the sequential default, 1.
  int partitions = 1;
  // --max-sim-time US: progress guard (ClusterConfig::max_sim_time);
  // 0 = unlimited.
  sim::Time max_sim_time = sim::Time::zero();
  void emit(const std::string& title, const util::Table& t) const {
    if (csv) {
      t.print_csv(std::cout);
    } else {
      std::cout << "=== " << title << " ===\n";
      t.print(std::cout);
      std::cout << '\n';
    }
  }
};

/// `value` of --`key`, refused (std::invalid_argument: exit 2) above
/// `max`, the largest the flag's type can hold, instead of wrapping.
inline std::uint64_t in_range(const std::string& key, std::uint64_t value,
                              std::uint64_t max) {
  if (value > max) {
    throw std::invalid_argument("--" + key + "=" + std::to_string(value) +
                                " is out of range (at most " +
                                std::to_string(max) + ")");
  }
  return value;
}

/// Parse --csv and --jobs, plus whatever `own` reads. CLI boundary: a
/// malformed or out-of-range value, an unknown or unhonoured flag, or a
/// positional argument prints one clear line and exits 2 — never an
/// unhandled std::invalid_argument out of main.
inline Output parse_output(
    int argc, char** argv,
    const std::function<void(const util::Flags&, Output&)>& own = {}) {
  Output out;
  const int rc = util::run_cli([&] {
    util::Flags flags(argc, argv);
    if (!flags.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" +
                                  flags.positional().front() + "'");
    }
    out.csv = flags.get_bool("csv", false);
    out.jobs = static_cast<int>(
        in_range("jobs", flags.get_uint("jobs", 1), INT_MAX));
    if (own) own(flags, out);
    flags.reject_unknown();
    return 0;
  });
  if (rc != 0) std::exit(rc);
  return out;
}

/// parse_output plus the cell flags run_cells applies.
inline Output parse_cell_output(int argc, char** argv) {
  return parse_output(argc, argv, [](const util::Flags& flags, Output& out) {
    const std::int64_t partitions = flags.get_int("partitions", 1);
    if (partitions < 1) {
      throw std::invalid_argument("--partitions must be >= 1");
    }
    out.partitions = static_cast<int>(in_range(
        "partitions", static_cast<std::uint64_t>(partitions), INT_MAX));
    // Microseconds, held as int64 picoseconds.
    out.max_sim_time = sim::Time::us(static_cast<std::int64_t>(
        in_range("max-sim-time", flags.get_uint("max-sim-time", 0),
                 INT64_MAX / sim::Time::us(1).count_ps())));
    const std::uint64_t seed = flags.get_uint("seed", 1);
    const std::string spec = flags.get("faults", "");
    if (spec.empty()) {
      // --seed only reseeds a fault plan: without one it would be dropped.
      if (flags.has("seed")) {
        throw std::invalid_argument("--seed needs --faults");
      }
    } else {
      out.faults = fault::FaultPlan::parse(spec);
      // An explicit --seed overrides a seed: clause inside the spec.
      if (flags.has("seed")) out.faults.set_seed(seed);
    }
  });
}

/// Evaluate fn(net) for the three paper nets, fanned over --jobs. Each
/// call builds and runs its own private Cluster/Engine on one worker, so
/// warm-cache calibration inside a series is untouched.
template <class Fn>
auto per_net(const Output& out, Fn&& fn)
    -> std::array<std::invoke_result_t<Fn&, cluster::Net>, 3> {
  auto v = sweep::SweepRunner(out.jobs).map(kAllNets, fn);
  return {std::move(v[0]), std::move(v[1]), std::move(v[2])};
}

/// Fan fn(0) .. fn(n-1) over --jobs; results come back in index order.
template <class Fn>
auto sweep_indexed(const Output& out, std::size_t n, Fn&& fn) {
  return sweep::SweepRunner(out.jobs).run_indexed(n, std::forward<Fn>(fn));
}

/// Three series (one per net) over a size sweep -> one table.
inline util::Table series_table(
    const char* value_name,
    const std::vector<std::uint64_t>& sizes,
    const std::vector<microbench::Point>& ib,
    const std::vector<microbench::Point>& my,
    const std::vector<microbench::Point>& qs, int precision = 2) {
  util::Table t({"size", std::string("IBA_") + value_name,
                 std::string("Myri_") + value_name,
                 std::string("QSN_") + value_name});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    t.row()
        .add(util::size_label(sizes[i]))
        .add(ib[i].value, precision)
        .add(my[i].value, precision)
        .add(qs[i].value, precision);
  }
  return t;
}

/// series_table over a per_net() result.
inline util::Table series_table(
    const char* value_name, const std::vector<std::uint64_t>& sizes,
    const std::array<std::vector<microbench::Point>, 3>& nets,
    int precision = 2) {
  return series_table(value_name, sizes, nets[0], nets[1], nets[2],
                      precision);
}

/// One application cell: a registry app on one cluster configuration.
struct Cell {
  std::string app;
  cluster::ClusterConfig cfg;
};

/// What the renderers read from one cell's run.
struct CellResult {
  double seconds = 0;       // rank 0's simulated application time
  prof::RankStats totals;   // profiler counts summed over every rank
  prof::RankStats busiest;  // the rank with the most MPI calls
  std::uint64_t node0_mpi_bytes = 0;  // MPI memory footprint on node 0
};

/// The one harness path for an application cell. Runs every cell in
/// class-B skeleton mode, profiled as the paper's MPICH logging did for
/// Tables 1 and 3-6, fanned over --jobs with the cell flags applied, and
/// returns the results in cell order. --partitions is clamped to each
/// cell's node count so one value covers a scaling sweep (Cluster itself
/// rejects partitions > nodes). A livelocked cell (--max-sim-time, or a
/// fabric's retransmit watchdog) exits 3 after one diagnostic, the first
/// failing cell's, whatever --jobs is.
inline std::vector<CellResult> run_cells(const Output& out,
                                         const std::vector<Cell>& cells) {
  const auto run = [&](std::size_t i) {
    const Cell& cell = cells[i];
    cluster::ClusterConfig cfg = cell.cfg;
    cfg.partitions = std::min(out.partitions, static_cast<int>(cfg.nodes));
    cfg.faults = out.faults;
    cfg.max_sim_time = out.max_sim_time;
    cluster::Cluster c(cfg);
    const auto& spec = apps::find_app(cell.app);
    if (!spec.ranks_ok(c.ranks())) {
      throw std::invalid_argument(cell.app + " cannot run on " +
                                  std::to_string(c.ranks()) + " ranks");
    }
    CellResult r;
    try {
      c.run([&](mpi::Comm& comm) -> sim::Task<void> {
        const auto res = co_await spec.run_full(comm, apps::Mode::kSkeleton);
        if (comm.rank() == 0) r.seconds = res.app_seconds;
      });
    } catch (const sim::LivelockError& e) {
      // Name the cell. SweepRunner rethrows the lowest-index failure on
      // the caller once every worker has drained.
      throw sim::LivelockError(cell.app + " on " + cluster::net_name(cfg.net) +
                               ", " + std::to_string(cfg.nodes) +
                               " nodes:\n" + e.report());
    }
    const prof::Recorder& rec = c.recorder();
    r.totals = rec.totals();
    r.busiest = rec.rank(0);
    for (int k = 1; k < c.ranks(); ++k) {
      if (rec.rank(k).mpi_calls > r.busiest.mpi_calls) r.busiest = rec.rank(k);
    }
    r.node0_mpi_bytes = c.device_memory_bytes(0);
    return r;
  };
  std::string diagnostic;
  try {
    return sweep::SweepRunner(out.jobs).run_indexed(cells.size(), run);
  } catch (const sim::LivelockError& e) {
    diagnostic = e.report();
  }
  std::cerr << "error: simulation livelock in " << diagnostic << '\n';
  std::exit(3);
}

/// The paper's profiled runs (Tables 1 and 3-6): each row's app on
/// InfiniBand at the row's node count, `ppn` processes per node.
template <class Rows>
std::vector<CellResult> run_profiled(const Output& out, const Rows& rows,
                                     int ppn = 1) {
  std::vector<Cell> cells;
  for (const auto& r : rows) {
    cells.push_back({r.app, {.nodes = r.nodes, .ppn = ppn,
                             .net = cluster::Net::kInfiniBand}});
  }
  return run_cells(out, cells);
}

}  // namespace mns::bench
