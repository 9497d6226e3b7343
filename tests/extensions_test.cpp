// Tests for the paper's future-work extensions: on-demand RC connections
// (Section 3.8 / Wu et al.) and hardware-multicast collectives over
// InfiniBand (Section 3.7 / Kini et al.); and for the ablation variants,
// each measured with the figure kernel whose mechanism it switches.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "microbench/microbench.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::View;
using sim::Task;

ClusterConfig on_demand_cfg(std::size_t nodes) {
  return {.nodes = nodes,
          .net = Net::kInfiniBand,
          .variant = {.on_demand_connections = true}};
}

TEST(OnDemandConnections, MemoryGrowsOnlyWithContactedPeers) {
  // Nearest-neighbour ring traffic: each node talks to 2 peers, so the
  // footprint must stay flat regardless of cluster size.
  for (std::size_t nodes : {4ull, 8ull}) {
    Cluster c(on_demand_cfg(nodes));
    c.run([](Comm& comm) -> Task<> {
      const int right = (comm.rank() + 1) % comm.size();
      const int left = (comm.rank() - 1 + comm.size()) % comm.size();
      for (int i = 0; i < 3; ++i) {
        co_await comm.sendrecv(View::synth(0x100, 1024), right, 0,
                               View::synth(0x200, 1024), left, 0);
      }
    });
    // base 20 MB + exactly 2 connections at 5 MB.
    EXPECT_EQ(c.device_memory_bytes(0), (20ull + 2 * 5) << 20)
        << nodes << " nodes";
  }
}

TEST(OnDemandConnections, AllToAllTrafficReachesStaticFootprint) {
  Cluster c(on_demand_cfg(8));
  c.run([](Comm& comm) -> Task<> {
    co_await comm.alltoall(View::synth(0x100, 8 * 64),
                           View::synth(0x9000, 8 * 64), 64);
  });
  EXPECT_EQ(c.device_memory_bytes(0), (20ull + 7 * 5) << 20);
}

TEST(OnDemandConnections, FirstMessagePaysSetup) {
  // Same ping-pong twice: the first round carries the connection setup.
  Cluster c(on_demand_cfg(2));
  double first = 0, second = 0;
  c.run([&](Comm& comm) -> Task<> {
    const View buf = View::synth(0x100 + comm.rank(), 64);
    const double t0 = comm.wtime();
    if (comm.rank() == 0) {
      co_await comm.send(buf, 1, 0);
      co_await comm.recv(buf, 1, 0);
      first = (comm.wtime() - t0) * 1e6;
      const double t1 = comm.wtime();
      co_await comm.send(buf, 1, 0);
      co_await comm.recv(buf, 1, 0);
      second = (comm.wtime() - t1) * 1e6;
    } else {
      co_await comm.recv(buf, 0, 0);
      co_await comm.send(buf, 0, 0);
      co_await comm.recv(buf, 0, 0);
      co_await comm.send(buf, 0, 0);
    }
  });
  // One setup in round one (connections are bidirectional), none later.
  EXPECT_GT(first, second + 100.0);
  EXPECT_LT(second, 20.0);
}

ClusterConfig multicast_cfg(std::size_t nodes) {
  return {.nodes = nodes,
          .net = Net::kInfiniBand,
          .variant = {.hw_multicast = true}};
}

double time_collective(Cluster& c,
                       std::function<sim::Task<void>(Comm&)> op) {
  double us = 0;
  c.run([&](Comm& comm) -> Task<> {
    co_await comm.barrier();
    const int iters = 30;
    const double t0 = comm.wtime();
    for (int i = 0; i < iters; ++i) co_await op(comm);
    co_await comm.barrier();
    if (comm.rank() == 0) us = (comm.wtime() - t0) / iters * 1e6;
  });
  return us;
}

TEST(IbMulticast, SpeedsUpBroadcastAndAllreduce) {
  auto bcast_op = [](Comm& comm) {
    return comm.bcast(View::synth(0x500, 64), 0);
  };
  auto allreduce_op = [](Comm& comm) {
    return comm.allreduce(View::synth(0x600, 8), 1, mpi::Dtype::kDouble,
                          mpi::ROp::kSum);
  };
  ClusterConfig plain{.nodes = 8, .net = Net::kInfiniBand};
  Cluster c0(plain);
  Cluster c1(multicast_cfg(8));
  const double b_plain = time_collective(c0, bcast_op);
  const double b_mc = time_collective(c1, bcast_op);
  EXPECT_LT(b_mc, b_plain);

  Cluster c2(plain);
  Cluster c3(multicast_cfg(8));
  const double r_plain = time_collective(c2, allreduce_op);
  const double r_mc = time_collective(c3, allreduce_op);
  EXPECT_LT(r_mc, r_plain);
}

TEST(IbMulticast, BroadcastStillDeliversData) {
  Cluster c(multicast_cfg(4));
  std::vector<int> got(4, -1);
  c.run([&got](Comm& comm) -> Task<> {
    int v = comm.rank() == 1 ? 4242 : -1;
    co_await comm.bcast(View::out(&v, 4), 1);
    got[static_cast<std::size_t>(comm.rank())] = v;
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(got[r], 4242);
}

TEST(IbMulticast, BarrierStaysComparableToDissemination) {
  // Kini et al.'s full win needs RDMA-flag fan-in (children write flags
  // straight into the root's memory), which our device layer does not
  // model; with a message-based gather only the release phase improves,
  // so the multicast barrier lands in the same ballpark as the
  // dissemination tree rather than clearly beating it. Pin that down.
  auto barrier_us = [&](std::size_t nodes, bool mc) {
    ClusterConfig cfg =
        mc ? multicast_cfg(nodes)
           : ClusterConfig{.nodes = nodes, .net = Net::kInfiniBand};
    Cluster c(cfg);
    return time_collective(c,
                           [](Comm& comm) { return comm.barrier(); });
  };
  for (std::size_t nodes : {8ull, 16ull}) {
    const double mc = barrier_us(nodes, true);
    const double tree = barrier_us(nodes, false);
    EXPECT_LT(mc, tree * 1.6) << nodes;
    EXPECT_GT(mc, tree * 0.5) << nodes;
  }
}

// Each ablation test fails if Cluster ignores its Variant field: the
// variant run would then equal the default one.

TEST(Ablation, NicProgressLiftsIbOverlapAboveHostDrivenPlateau) {
  // Fig. 6: host-driven IB rendezvous overlaps about 6 us of computation
  // at 4K and 16K; NIC-side progress overlaps about 35 and 55 us.
  const std::vector<std::uint64_t> sizes{4096, 16384};
  const auto host = microbench::overlap_potential(Net::kInfiniBand, sizes);
  const auto nic = microbench::overlap_potential(
      Net::kInfiniBand, sizes, {.variant = {.nic_progress = true}});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LT(host[i].value, 10.0) << sizes[i];
    EXPECT_GT(nic[i].value, 4 * host[i].value) << sizes[i];
  }
}

TEST(Ablation, FreeRegistrationErasesIbReuseCliff) {
  // Fig. 7: with registration, 8K latency at 0 % reuse (about 96 us) is
  // over twice that at 100 % (about 41 us); free, the two are equal.
  const auto lat_us = [](int reuse, bool free_registration) {
    return microbench::buffer_reuse_latency(
        Net::kInfiniBand, {8192}, reuse,
        {.variant = {.free_registration = free_registration}})[0]
        .value;
  };
  EXPECT_GT(lat_us(0, false), 2 * lat_us(100, false));
  EXPECT_DOUBLE_EQ(lat_us(0, true), lat_us(100, true));
}

TEST(Ablation, QuadricsAllreduceSlowerWithoutHardwareBroadcast) {
  // Fig. 12: the 8-node 4 B allreduce takes about 23 us over the Elite
  // hardware broadcast and about 28 us on point-to-point trees.
  const auto allreduce_us = [](bool hw) {
    return microbench::allreduce_latency(Net::kQuadrics, {4},
                                         {.variant = {.elan_hw_bcast = hw}})[0]
        .value;
  };
  EXPECT_GT(allreduce_us(false), allreduce_us(true) + 2.0);
}

}  // namespace
