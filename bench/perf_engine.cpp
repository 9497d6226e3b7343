// Engine performance micro-benchmarks (google-benchmark): these measure
// the SIMULATOR itself (host performance), not the modelled hardware.
//
// CI runs this binary in Release and uploads the JSON report; by default
// it writes BENCH_engine.json next to the working directory (pass your
// own --benchmark_out to override).
#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <vector>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "ib/ib_fabric.hpp"
#include "model/node_hw.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/pdes/pdes.hpp"
#include "sim/sync.hpp"
#include "sweep/sweep_runner.hpp"

using namespace mns;

static void BM_EventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      eng.after(sim::Time::ns(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EventThroughput)->Unit(benchmark::kMillisecond);

static void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Mailbox<int> a(eng), b(eng);
    eng.spawn([](sim::Mailbox<int>& a, sim::Mailbox<int>& b) -> sim::Task<void> {
      for (int i = 0; i < 20000; ++i) {
        a.send(i);
        co_await b.receive();
      }
    }(a, b));
    eng.spawn([](sim::Mailbox<int>& a, sim::Mailbox<int>& b) -> sim::Task<void> {
      for (int i = 0; i < 20000; ++i) {
        co_await a.receive();
        b.send(i);
      }
    }(a, b));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 40000);
}
BENCHMARK(BM_CoroutinePingPong)->Unit(benchmark::kMillisecond);

static void BM_MpiLatencySim(benchmark::State& state) {
  for (auto _ : state) {
    cluster::ClusterConfig cfg{.nodes = 2,
                               .net = cluster::Net::kInfiniBand};
    cluster::Cluster c(cfg);
    c.run([](mpi::Comm& comm) -> sim::Task<void> {
      const mpi::View buf = mpi::View::synth(0x1000 + comm.rank(), 64);
      for (int i = 0; i < 500; ++i) {
        if (comm.rank() == 0) {
          co_await comm.send(buf, 1, 0);
          co_await comm.recv(buf, 1, 0);
        } else {
          co_await comm.recv(buf, 0, 0);
          co_await comm.send(buf, 0, 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MpiLatencySim)->Unit(benchmark::kMillisecond);

// Message data path, fabric level: an uncontended ping-pong stream of
// 64 KB messages over the IB model (32 MTU packets each) through the
// pooled packet state machine, every message posted as the previous one
// lands.
static void BM_MessagePathStream(benchmark::State& state) {
  constexpr int kMsgs = 2000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
    int left = kMsgs;
    std::function<void()> bounce = [&] {
      if (--left == 0) return;
      model::NetMsg m;
      m.src = left % 2;  // alternate direction each bounce
      m.dst = 1 - m.src;
      m.bytes = 64 << 10;
      m.remote_arrival = bounce;
      fab.post(std::move(m));
    };
    model::NetMsg first;
    first.src = 0;
    first.dst = 1;
    first.bytes = 64 << 10;
    first.remote_arrival = bounce;
    fab.post(std::move(first));
    eng.run();
    benchmark::DoNotOptimize(fab.messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_MessagePathStream)->Unit(benchmark::kMillisecond);

// Same data path under fan-in contention: two senders stream into one
// receiver, so their packets interleave on the receiver's switch port,
// rx engine and host bus.
static void BM_MessagePathContended(benchmark::State& state) {
  constexpr int kPerStream = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw c(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b, &c};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(3));
    int left[2] = {kPerStream, kPerStream};
    std::function<void()> repost[2];
    for (int s = 0; s < 2; ++s) {
      repost[s] = [&, s] {
        if (--left[s] == 0) return;
        model::NetMsg m;
        m.src = s;
        m.dst = 2;
        m.bytes = 16 << 10;
        m.remote_arrival = repost[s];
        fab.post(std::move(m));
      };
      model::NetMsg m;
      m.src = s;
      m.dst = 2;
      m.bytes = 16 << 10;
      m.remote_arrival = repost[s];
      fab.post(std::move(m));
    }
    eng.run();
    benchmark::DoNotOptimize(fab.messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kPerStream);
}
BENCHMARK(BM_MessagePathContended)->Unit(benchmark::kMillisecond);

// Recovery-path hot loop: the same fabric-level bounce stream as
// BM_MessagePathStream, but with a 20% deterministic drop rate on the
// 0->1 link — a retransmit storm. Exercises lose_packet/arm_rto/
// resend_lost, the cancellable-timer slab, and the error surface (the
// bounce continues through on_failed when a message exhausts its
// budget), so the bench_compare regression gate covers the fault
// machinery alongside the happy path.
static void BM_RetransmitStorm(benchmark::State& state) {
  constexpr int kMsgs = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
    fault::FaultPlan plan;
    plan.set_seed(7).drop(0, 1, 0.20).corrupt(1, 0, 0.05);
    fab.set_fault_plan(plan);
    int left = kMsgs;
    std::function<void()> bounce = [&] {
      if (--left == 0) return;
      model::NetMsg m;
      m.src = left % 2;
      m.dst = 1 - m.src;
      m.bytes = 16 << 10;
      m.remote_arrival = bounce;
      m.on_failed = bounce;  // an abandoned message must not stall the run
      fab.post(std::move(m));
    };
    model::NetMsg first;
    first.src = 0;
    first.dst = 1;
    first.bytes = 16 << 10;
    first.remote_arrival = bounce;
    first.on_failed = bounce;
    fab.post(std::move(first));
    eng.run();
    benchmark::DoNotOptimize(fab.packets_retransmitted());
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_RetransmitStorm)->Unit(benchmark::kMillisecond);

// Fail-stop degradation hot loop: the 0->1 link dies permanently before
// the first message, so message #1 runs the full retry cycle, exhausts
// its budget and teaches the shard the link is dead — and every later
// 0->1 message takes the sender_loop degradation fast path (bounded
// backoff + abort_degraded) instead of re-running retransmission.
// Measures the learned-dead fast-fail cost the graceful-degradation
// design note promises stays O(1) per message; the healthy 1->0
// direction runs interleaved as the control.
static void BM_LinkDownRecovery(benchmark::State& state) {
  constexpr int kMsgs = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
    fault::FaultPlan plan;
    plan.set_seed(7).link_down(0, 1, sim::Time::zero());
    fab.set_fault_plan(plan);
    int left = kMsgs;
    std::function<void()> bounce = [&] {
      if (--left == 0) return;
      model::NetMsg m;
      m.src = left % 2;
      m.dst = 1 - m.src;
      m.bytes = 16 << 10;
      m.remote_arrival = bounce;
      m.on_failed = bounce;  // degraded-path aborts keep the run moving
      fab.post(std::move(m));
    };
    model::NetMsg first;
    first.src = 0;
    first.dst = 1;
    first.bytes = 16 << 10;
    first.remote_arrival = bounce;
    first.on_failed = bounce;
    fab.post(std::move(first));
    eng.run();
    benchmark::DoNotOptimize(fab.messages_aborted());
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_LinkDownRecovery)->Unit(benchmark::kMillisecond);

// Fault-aware collective end-to-end: one NIC on an 8-node InfiniBand
// cluster dies early, and every later allreduce runs the degradation
// fast path plus the deterministic error-agreement epilogue (the binomial
// fan-in/fan-out that gives all live ranks the same verdict). Guards the
// epilogue's overhead and the degraded collective's termination — each
// round still completes delivered-or-errored.
static void BM_DegradedAllreduce(benchmark::State& state) {
  constexpr std::uint64_t kBytes = 4 << 10;
  constexpr int kRounds = 8;
  for (auto _ : state) {
    cluster::ClusterConfig cfg{.nodes = 8,
                               .net = cluster::Net::kInfiniBand};
    cfg.faults = fault::FaultPlan(7).nic_down(5, sim::Time::us(5));
    cluster::Cluster c(cfg);
    int errors = 0;
    c.run([&](mpi::Comm& comm) -> sim::Task<void> {
      const mpi::View buf = mpi::View::synth(
          0x40000u + (static_cast<unsigned>(comm.rank()) << 16), kBytes);
      for (int round = 0; round < kRounds; ++round) {
        co_await comm.allreduce(buf, kBytes / 8, mpi::Dtype::kInt64,
                                mpi::ROp::kSum);
        if (comm.rank() == 0 && comm.last_error() != mpi::kErrNone) {
          ++errors;
        }
      }
    });
    if (errors == 0) state.SkipWithError("dead NIC never surfaced");
    benchmark::DoNotOptimize(c.fabric().messages_aborted());
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_DegradedAllreduce)->Unit(benchmark::kMillisecond);

// Frame-pool churn: every spawn allocates a Root frame plus a Task frame,
// and every completion retires both, so each wave recycles its frames
// through the per-thread pool (40k promise allocations per iteration).
static void BM_FramePoolChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int wave = 0; wave < 100; ++wave) {
      for (int i = 0; i < 200; ++i) {
        eng.spawn([](sim::Engine& e, int d) -> sim::Task<void> {
          co_await e.delay(sim::Time::ns(d));
        }(eng, i));
      }
      eng.run();
    }
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_FramePoolChurn)->Unit(benchmark::kMillisecond);

// Sweep fan-out: twelve independent 2-node ping-pong simulations mapped
// over the runner, as the fig/tab harnesses do. Arg is --jobs; real time
// shows the between-simulation scaling (and jobs=1 the runner's overhead).
static void BM_SweepRunner(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto secs = sweep::SweepRunner(jobs).run_indexed(12, [](std::size_t i) {
      cluster::ClusterConfig cfg{
          .nodes = 2,
          .net = static_cast<cluster::Net>(i % 3)};
      cluster::Cluster c(cfg);
      c.run([](mpi::Comm& comm) -> sim::Task<void> {
        const mpi::View buf = mpi::View::synth(0x1000 + comm.rank(), 64);
        for (int k = 0; k < 200; ++k) {
          if (comm.rank() == 0) {
            co_await comm.send(buf, 1, 0);
            co_await comm.recv(buf, 1, 0);
          } else {
            co_await comm.recv(buf, 0, 0);
            co_await comm.send(buf, 0, 0);
          }
        }
      });
      return c.engine().now().to_seconds();
    });
    benchmark::DoNotOptimize(secs.data());
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// In-run parallelism (src/sim/pdes): one simulation partitioned across
// worker threads with conservative lookahead. Arg is the partition count;
// Arg(1) is the same workload on the inline sequential path, so the
// 1-vs-4 ratio is the wall-clock speedup the partitioned core buys and
// the Arg(1) row tracks its overhead. Results are digest-checked
// against the sequential run — the speedup is only admissible because
// the output bytes are identical.

namespace {
inline std::uint64_t pdes_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

// 64-node wavefront sweep: the Sweep3D dependency pattern of Fig. 17 /
// Table 2, at the paper's 8x8 scale. Cell (i,j) computes when its west
// and north halves arrive, then feeds east and south; 48 pipelined waves
// keep every anti-diagonal busy, so at steady state all 64 cells (16 per
// partition at Arg(4)) have work each hop.
static void BM_PdesSweep3D64(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  constexpr int kGrid = 8;
  constexpr int kWaves = 48;
  constexpr int kSpin = 1600;  // per-cell compute, ~the event cost of a
                               // skeleton-mode Sweep3D cell update
  constexpr std::int64_t kHopPs = 1000;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const auto topo = sim::pdes::Topology::blocks(
        kGrid * kGrid, parts, sim::Time::ps(kHopPs));
    auto cnt = std::make_shared<std::vector<int>>(kGrid * kGrid, 0);
    auto acc = std::make_shared<std::vector<std::uint64_t>>(kGrid * kGrid, 1);
    const auto build = [&](sim::pdes::Context& ctx) {
      sim::pdes::Context* cp = &ctx;
      const auto fire = [cnt, acc](sim::pdes::Context& c, int n,
                                   std::uint64_t w) {
        auto& a = (*acc)[static_cast<std::size_t>(n)];
        std::uint64_t v = a ^ w;
        for (int s = 0; s < kSpin; ++s) v = pdes_mix(v);
        a = v;
        const int i = n / kGrid, j = n % kGrid;
        if (j + 1 < kGrid) {
          c.send(n, n + 1, c.now() + sim::Time::ps(kHopPs), v);
        }
        if (i + 1 < kGrid) {
          c.send(n, n + kGrid, c.now() + sim::Time::ps(kHopPs), v);
        }
        if (n == kGrid * kGrid - 1) c.emit(n, v);  // wave completion
      };
      for (int n : ctx.nodes()) {
        const int i = n / kGrid, j = n % kGrid;
        const int expected = (i > 0 ? 1 : 0) + (j > 0 ? 1 : 0);
        ctx.on_message(n, [cnt, fire, expected](sim::pdes::Context& c,
                                                int node, std::uint64_t w) {
          auto& k = (*cnt)[static_cast<std::size_t>(node)];
          if (++k < expected) return;
          k = 0;
          fire(c, node, w);
        });
        if (n == 0) {
          for (int wave = 0; wave < kWaves; ++wave) {
            ctx.engine().at(sim::Time::ps((wave + 1) * kHopPs),
                            sim::EventFn::make([cp, fire, wave] {
                              fire(*cp, 0,
                                   static_cast<std::uint64_t>(wave));
                            }));
          }
        }
      }
    };
    const auto r = sim::pdes::run(topo, build);
    sink ^= r.digest();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kWaves * kGrid * kGrid);
}
BENCHMARK(BM_PdesSweep3D64)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// 64-node torus halo exchange: the neighbor-exchange phase of the
// Table 2 CG/MG class-B runs. Every step each node swaps halos with its
// four torus neighbors and computes when all four arrive — lockstep
// epochs, the friendliest and the most synchronization-heavy shape for
// a conservative core.
static void BM_PdesHalo64(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  constexpr int kGrid = 8;
  constexpr int kSteps = 64;
  constexpr int kSpin = 1600;
  constexpr std::int64_t kHopPs = 1000;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const auto topo = sim::pdes::Topology::blocks(
        kGrid * kGrid, parts, sim::Time::ps(kHopPs));
    auto cnt = std::make_shared<std::vector<int>>(kGrid * kGrid, 0);
    auto step = std::make_shared<std::vector<int>>(kGrid * kGrid, 0);
    auto acc = std::make_shared<std::vector<std::uint64_t>>(kGrid * kGrid, 1);
    const auto build = [&](sim::pdes::Context& ctx) {
      sim::pdes::Context* cp = &ctx;
      const auto exchange = [](sim::pdes::Context& c, int n,
                               std::uint64_t v) {
        const int i = n / kGrid, j = n % kGrid;
        const int east = i * kGrid + (j + 1) % kGrid;
        const int west = i * kGrid + (j + kGrid - 1) % kGrid;
        const int south = ((i + 1) % kGrid) * kGrid + j;
        const int north = ((i + kGrid - 1) % kGrid) * kGrid + j;
        const sim::Time when = c.now() + sim::Time::ps(kHopPs);
        c.send(n, east, when, v);
        c.send(n, west, when, v);
        c.send(n, south, when, v);
        c.send(n, north, when, v);
      };
      for (int n : ctx.nodes()) {
        ctx.on_message(n, [cnt, step, acc, exchange](
                              sim::pdes::Context& c, int node,
                              std::uint64_t w) {
          auto& a = (*acc)[static_cast<std::size_t>(node)];
          a ^= w;
          auto& k = (*cnt)[static_cast<std::size_t>(node)];
          if (++k < 4) return;
          k = 0;
          std::uint64_t v = a;
          for (int s = 0; s < kSpin; ++s) v = pdes_mix(v);
          a = v;
          auto& st = (*step)[static_cast<std::size_t>(node)];
          if (++st < kSteps) {
            exchange(c, node, v);
          } else {
            c.emit(node, v);  // final field value, digest-checked
          }
        });
        ctx.engine().at(sim::Time::ps(kHopPs),
                        sim::EventFn::make([cp, exchange, n] {
                          exchange(*cp, n, static_cast<std::uint64_t>(n));
                        }));
      }
    };
    const auto r = sim::pdes::run(topo, build);
    sink ^= r.digest();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kSteps * kGrid * kGrid);
}
BENCHMARK(BM_PdesHalo64)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// -- partitioned cluster workloads -----------------------------------------
//
// The synthetic PDES benches above measure the executor in isolation; these
// run the REAL cluster fabric (split-flow netfabric, NIC/bus pipes, MPI
// procs) on the partitioned executor — the workload `--partitions=N` exists
// for. Arg is the partition count; the result must be bit-identical across
// args (digest-checked below), so any real-time delta between Arg(1) and
// Arg(4) is pure executor scaling. On a one-core host the parallel args
// measure overhead, not speedup — read the JSON on a multi-core box.

static std::uint64_t run_cluster_app(const char* name, int partitions) {
  cluster::ClusterConfig cfg{.nodes = 64,
                             .ppn = 1,
                             .net = cluster::Net::kInfiniBand,
                             .partitions = partitions};
  cluster::Cluster c(cfg);
  const auto& spec = apps::find_app(name);
  apps::AppResult r0;
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    auto r = co_await spec.run_full(comm, apps::Mode::kSkeleton);
    if (comm.rank() == 0) r0 = r;
  });
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r0.app_seconds, sizeof(bits));
  return bits ^ static_cast<std::uint64_t>(c.now().count_ps());
}

// Sweep3D input 50 on 64 nodes over InfiniBand: wavefront dependences,
// the paper's Fig. 17 workload at Table 2 scale.
static void BM_ClusterSweep3D64(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  static const std::uint64_t want = run_cluster_app("s3d50", 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint64_t got = run_cluster_app("s3d50", parts);
    if (got != want) state.SkipWithError("partition digest mismatch");
    sink ^= got;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());  // app runs per second
}
BENCHMARK(BM_ClusterSweep3D64)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// NAS CG class B on 64 ranks: the irregular sparse-matvec exchange from
// the paper's Fig. 16, heavier on concurrent point-to-point traffic.
static void BM_ClusterCg64(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  static const std::uint64_t want = run_cluster_app("cg", 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint64_t got = run_cluster_app("cg", parts);
    if (got != want) state.SkipWithError("partition digest mismatch");
    sink ^= got;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());  // app runs per second
}
BENCHMARK(BM_ClusterCg64)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Default the JSON report so CI (and anyone running the binary bare)
  // gets BENCH_engine.json without extra flags.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_engine.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
