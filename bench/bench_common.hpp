// Shared helpers for the per-figure/table bench binaries.
//
// Every binary prints one paper artifact: a header naming the figure or
// table, then aligned columns (or CSV with --csv). Where the paper gives
// a value, it is printed alongside ours.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "microbench/microbench.hpp"
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
  // --seed N / --faults SPEC: deterministic chaos harness (src/fault).
  // Published artifacts are generated without --faults; with it, packet
  // drops/corruption, link flaps, NIC stalls and registration failures
  // are injected and the per-fabric recovery protocols (and their MPI
  // degradation paths) carry the run to completion. --seed reseeds the
  // plan; the same (seed, spec, workload) always yields the same run.
  std::uint64_t seed = 1;
  fault::FaultPlan faults;  // empty unless --faults was given
  // --partitions N: PDES partition count for in-run parallelism (see
  // ClusterConfig::partitions and src/sim/pdes). 1 — the default for
  // every published artifact — is the sequential engine, byte-identical
  // to the seed outputs; N > 1 must produce the same bytes, and the
  // chaos suite enforces it.
  int partitions = 1;
  // --max-sim-time US: progress guard. A run whose simulated clock would
  // cross this horizon aborts with the watchdog's progress diagnostic on
  // stderr and exit code 3 instead of spinning forever (armed chaos
  // plans meeting misconfigured retry budgets can otherwise livelock).
  // 0 (the default) means unlimited.
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

/// Process-wide --max-sim-time horizon, set by parse_output and consumed
/// by run_app so the guard covers every harness without threading one
/// more parameter through thirty call sites. Zero = unlimited.
inline sim::Time& guard_sim_time() {
  static sim::Time t = sim::Time::zero();
  return t;
}

inline Output parse_output(int argc, char** argv) {
  Output out;
  // CLI boundary: a malformed --seed/--faults/--jobs (or a typo'd flag)
  // prints one clear line and exits 2 — never an unhandled
  // std::invalid_argument out of main.
  const int rc = util::run_cli([&] {
    util::Flags flags(argc, argv);
    out.csv = flags.get_bool("csv", false);
    out.jobs = static_cast<int>(flags.get_int("jobs", 1));
    out.partitions = static_cast<int>(flags.get_int("partitions", 1));
    if (out.partitions < 1) {
      throw std::invalid_argument("--partitions must be >= 1");
    }
    const bool seed_given = flags.has("seed");
    out.seed = flags.get_uint("seed", 1);
    out.max_sim_time =
        sim::Time::us(static_cast<std::int64_t>(
            flags.get_uint("max-sim-time", 0)));
    const std::string spec = flags.get("faults", "");
    if (!spec.empty()) {
      out.faults = fault::FaultPlan::parse(spec);
      // An explicit --seed overrides a seed: clause inside the spec.
      if (seed_given) out.faults.set_seed(out.seed);
    }
    flags.reject_unknown();
    return 0;
  });
  if (rc != 0) std::exit(rc);
  guard_sim_time() = out.max_sim_time;
  return out;
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

/// Run one registry app at paper scale (skeleton mode) and return the
/// simulated seconds (rank 0).
inline double run_app(const std::string& name, cluster::Net net,
                      std::size_t nodes, int ppn = 1,
                      cluster::Bus bus = cluster::Bus::kDefault,
                      const fault::FaultPlan& faults = {},
                      int partitions = 1) {
  // Scaling sweeps (tab02) run clusters smaller than a fixed
  // --partitions request; clamp here so one flag value covers the whole
  // sweep. The library itself stays strict (Cluster rejects
  // partitions > nodes).
  const int parts = std::min(partitions, static_cast<int>(nodes));
  cluster::ClusterConfig cfg{
      .nodes = nodes, .ppn = ppn, .net = net, .bus = bus,
      .partitions = parts, .faults = faults,
      .max_sim_time = guard_sim_time()};
  cluster::Cluster c(cfg);
  const auto& spec = apps::find_app(name);
  if (!spec.ranks_ok(c.ranks())) {
    throw std::invalid_argument(name + " cannot run on " +
                                std::to_string(c.ranks()) + " ranks");
  }
  apps::AppResult r0;
  try {
    c.run([&](mpi::Comm& comm) -> sim::Task<void> {
      auto r = co_await spec.run_full(comm, apps::Mode::kSkeleton);
      if (comm.rank() == 0) r0 = r;
    });
  } catch (const sim::LivelockError& e) {
    // --max-sim-time guard: surface the progress diagnostic and exit
    // cleanly with a distinct code rather than letting the exception
    // unwind through a sweep worker.
    std::cerr << "--max-sim-time exceeded in " << name << " on "
              << cluster::net_name(net) << ":\n"
              << e.report() << '\n';
    std::exit(3);
  }
  return r0.app_seconds;
}

}  // namespace mns::bench
