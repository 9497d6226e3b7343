// Partition-count invariance at cluster level (the --partitions analogue
// of sweep_test's --jobs suite): across 64 chaos seeds, half of them
// under --faults, the digest of a --partitions={2,4,8} run must equal the
// --partitions=1 run bit for bit. Also covers the partition
// plan itself: block layout, fabric-derived lookahead, validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/partition.hpp"
#include "fault/fault.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace mns;

constexpr std::size_t kNodes = 8;
constexpr std::uint64_t kEagerBytes = 512;
constexpr std::uint64_t kRdvBytes = 32 << 10;
constexpr std::uint64_t kSeeds = 64;

constexpr cluster::Net kNets[] = {cluster::Net::kInfiniBand,
                                  cluster::Net::kMyrinet,
                                  cluster::Net::kQuadrics};

// Chaos mix per seed (drops always; corruption/flaps/stalls cycling),
// same spirit as fault_test's plan_for.
fault::FaultPlan plan_for(std::uint64_t seed) {
  fault::FaultPlan p(seed);
  p.drop(fault::kAnyNode, fault::kAnyNode,
         0.02 + 0.01 * static_cast<double>(seed % 8));
  if (seed % 3 == 0) p.corrupt(0, 1, 0.05);
  if (seed % 4 == 0) p.flap(1, 2, sim::Time::us(20), sim::Time::us(60));
  if (seed % 5 == 0) p.reg_fail(fault::kAnyNode, 0.10);
  return p;
}

struct Digest {
  std::vector<std::uint64_t> words;
  bool operator==(const Digest&) const = default;
};

// Neighbour exchange (one eager + one rendezvous per rank) reduced to a
// flat word list: statuses in program order, fabric counters, final
// clock, violation count. Runs on SweepRunner workers — no gtest macros.
Digest run_point(cluster::Net net, std::uint64_t seed, int partitions,
                 bool faulted) {
  cluster::ClusterConfig cfg{.nodes = kNodes, .net = net};
  cfg.partitions = partitions;
  if (faulted) cfg.faults = plan_for(seed);
  cluster::Cluster c(cfg);
  const auto ranks = static_cast<std::size_t>(c.ranks());
  std::vector<std::vector<mpi::Status>> st(ranks);
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const int r = comm.rank();
    const int right = (r + 1) % comm.size();
    const int left = (r + comm.size() - 1) % comm.size();
    auto r1 = co_await comm.irecv(
        mpi::View::synth(0x4000u + static_cast<unsigned>(r), kEagerBytes),
        left, 1);
    auto r2 = co_await comm.irecv(
        mpi::View::synth(0x60000u + static_cast<unsigned>(r), kRdvBytes),
        left, 2);
    auto s1 = co_await comm.isend(
        mpi::View::synth(0x1000u + static_cast<unsigned>(r), kEagerBytes),
        right, 1);
    auto s2 = co_await comm.isend(
        mpi::View::synth(0x20000u + static_cast<unsigned>(r), kRdvBytes),
        right, 2);
    auto& out = st[static_cast<std::size_t>(r)];
    out.push_back(co_await comm.wait(r1));
    out.push_back(co_await comm.wait(r2));
    out.push_back(co_await comm.wait(s1));
    out.push_back(co_await comm.wait(s2));
  });

  model::NetFabric& fab = c.fabric();
  std::uint64_t violations = 0;
  Digest d;
  for (const auto& rank_statuses : st) {
    if (rank_statuses.size() != 4) ++violations;
    for (const mpi::Status& s : rank_statuses) {
      if (s.error != mpi::kErrNone && s.error != mpi::kErrFabric) {
        ++violations;
      }
      d.words.push_back(static_cast<std::uint64_t>(s.error));
      d.words.push_back(static_cast<std::uint64_t>(s.source));
      d.words.push_back(static_cast<std::uint64_t>(s.tag));
      d.words.push_back(s.bytes);
    }
  }
  if (fab.messages_posted() !=
      fab.messages_delivered() + fab.messages_errored()) {
    ++violations;
  }
  if (!c.make_audit_report().clean()) ++violations;
  // The plan the run was executed under must be structurally sound —
  // folded into the digest so a partition-dependent plan shows up as a
  // mismatch, not silently.
  const cluster::PartitionPlan& plan = c.partition_plan();
  if (plan.partitions != partitions || plan.lookahead <= sim::Time::zero()) {
    ++violations;
  }
  d.words.push_back(fab.messages_posted());
  d.words.push_back(fab.messages_delivered());
  d.words.push_back(fab.messages_errored());
  d.words.push_back(fab.packets_dropped());
  d.words.push_back(fab.packets_retransmitted());
  d.words.push_back(fab.packets_abandoned());
  // c.now() is the max over partition engines: each partition's clock
  // stops at its own last event, and only the max matches the sequential
  // engine's final time (the globally-last event runs on one of them).
  d.words.push_back(static_cast<std::uint64_t>(c.now().count_ps()));
  d.words.push_back(violations);
  return d;
}

// 64 seeds x partitions {1,2,4,8}; even seeds run under --faults, odd
// seeds fault-free, 32 of each.
TEST(PartitionChaos, DigestsArePartitionCountInvariantAcross64Seeds) {
  constexpr int kParts[] = {1, 2, 4, 8};
  sweep::SweepRunner runner(0);  // whole machine; output order is fixed
  const auto digests =
      runner.run_indexed(kSeeds * 4, [&](std::size_t i) {
        const std::uint64_t seed = 1 + i / 4;
        const bool faulted = seed % 2 == 0;
        return run_point(kNets[seed % 3], seed, kParts[i % 4], faulted);
      });
  for (std::size_t s = 0; s < kSeeds; ++s) {
    const Digest& base = digests[s * 4];  // partitions=1
    ASSERT_FALSE(base.words.empty());
    EXPECT_EQ(base.words.back(), 0u) << "invariant violated at seed "
                                     << (1 + s);
    for (std::size_t k = 1; k < 4; ++k) {
      EXPECT_EQ(digests[s * 4 + k], base)
          << "seed " << (1 + s) << " partitions " << kParts[k];
    }
  }
}

// ---------------------------------------------------------------------------
// Targeted cross-partition recovery: the ring neighbour exchange under a
// chaos drop plan forces retransmit timers to actually fire (not just
// arm) for flows whose rx half lives in another partition — the timer is
// tx-side state, the loss report and the resent packets cross the
// channel. The digest must not notice, and the retransmit counter must
// prove the recovery machine ran.

TEST(PartitionChaos, CrossPartitionRtoRetransmitsBitIdentically) {
  for (cluster::Net net :
       {cluster::Net::kInfiniBand, cluster::Net::kMyrinet}) {
    const Digest base =
        run_point(net, /*seed=*/7, /*partitions=*/1, /*faulted=*/true);
    ASSERT_FALSE(base.words.empty());
    EXPECT_EQ(base.words.back(), 0u) << "violations in sequential base";
    // words[-4] is packets_retransmitted (see run_point's layout): the
    // chaos plan for seed 7 must actually exercise recovery.
    EXPECT_GT(base.words[base.words.size() - 4], 0u)
        << "drop plan never fired an RTO; the test is vacuous";
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(run_point(net, 7, k, true), base)
          << "cross-partition RTO diverged at partitions=" << k;
    }
  }
}

// Staged bulk traffic (Myrinet SRAM): the per-node staging pipe is shared
// between the send and receive sides (the Fig. 5 bi-directional
// bottleneck), so a boundary tx half must not reorder the shared queue
// against the sequential machine. Bidirectional >256 KiB messages with a
// 1-byte runt last packet pin both the kTx-deferred ENTER and the staging
// lookahead floor.

TEST(PartitionChaos, StagedBulkGmTrafficIsPartitionInvariant) {
  auto point = [](int partitions) {
    cluster::ClusterConfig cfg{.nodes = 2,
                               .net = cluster::Net::kMyrinet};
    cfg.partitions = partitions;
    cluster::Cluster c(cfg);
    constexpr std::uint64_t kBulk = (256u << 10) + 1;  // 1-byte runt
    std::vector<std::vector<mpi::Status>> st(
        static_cast<std::size_t>(c.ranks()));
    c.run([&](mpi::Comm& comm) -> sim::Task<void> {
      const int peer = 1 - comm.rank();
      auto r1 = co_await comm.irecv(
          mpi::View::synth(0x9000u + static_cast<unsigned>(comm.rank()),
                           kBulk),
          peer, 5);
      auto s1 = co_await comm.isend(
          mpi::View::synth(0xA000u + static_cast<unsigned>(comm.rank()),
                           kBulk),
          peer, 5);
      auto& out = st[static_cast<std::size_t>(comm.rank())];
      out.push_back(co_await comm.wait(r1));
      out.push_back(co_await comm.wait(s1));
    });
    Digest d;
    for (const auto& rs : st) {
      for (const mpi::Status& s : rs) {
        d.words.push_back(static_cast<std::uint64_t>(s.error));
        d.words.push_back(s.bytes);
      }
    }
    d.words.push_back(c.fabric().messages_delivered());
    d.words.push_back(static_cast<std::uint64_t>(c.now().count_ps()));
    d.words.push_back(c.make_audit_report().clean() ? 0u : 1u);
    return d;
  };
  const Digest base = point(1);
  ASSERT_FALSE(base.words.empty());
  EXPECT_EQ(base.words.back(), 0u) << "audit failed in sequential base";
  EXPECT_EQ(point(2), base) << "staged bulk traffic diverged at K=2";
}

// ---------------------------------------------------------------------------
// The plan itself.

TEST(PartitionPlan, BlockLayoutAndFabricLookahead) {
  for (cluster::Net net : kNets) {
    cluster::ClusterConfig cfg{.nodes = 8, .net = net};
    cfg.partitions = 4;
    cluster::Cluster c(cfg);
    const cluster::PartitionPlan& plan = c.partition_plan();
    EXPECT_EQ(plan.nodes, 8);
    EXPECT_EQ(plan.partitions, 4);
    EXPECT_EQ(plan.part_of, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
    EXPECT_EQ(plan.sizes, (std::vector<int>{2, 2, 2, 2}));
    // The conservative lookahead is the fabric's tx wire latency — the
    // physical floor below which no cross-node effect can propagate.
    EXPECT_EQ(plan.lookahead, c.fabric().nic_config().tx_wire_latency);
    EXPECT_GT(plan.lookahead, sim::Time::zero());
    // Round-trips into the PDES core's vocabulary unchanged.
    const sim::pdes::Topology topo = plan.to_topology();
    EXPECT_NO_THROW(topo.validate());
    EXPECT_EQ(topo.part_of, plan.part_of);
    EXPECT_EQ(topo.lookahead, plan.lookahead);
  }
}

TEST(PartitionPlan, UnevenBlocksSpreadRemainderOverLeadingPartitions) {
  const auto plan =
      cluster::make_partition_plan(10, 4, sim::Time::ns(1));
  EXPECT_EQ(plan.sizes, (std::vector<int>{3, 2, 3, 2}));
  int total = 0;
  for (int s : plan.sizes) total += s;
  EXPECT_EQ(total, 10);
  // part_of must be monotone (contiguous blocks).
  for (std::size_t i = 1; i < plan.part_of.size(); ++i) {
    EXPECT_GE(plan.part_of[i], plan.part_of[i - 1]);
  }
}

TEST(PartitionPlan, RejectsImpossibleRequests) {
  EXPECT_THROW(cluster::make_partition_plan(0, 1, sim::Time::ns(1)),
               std::invalid_argument);
  EXPECT_THROW(cluster::make_partition_plan(8, 0, sim::Time::ns(1)),
               std::invalid_argument);
  EXPECT_THROW(cluster::make_partition_plan(8, 9, sim::Time::ns(1)),
               std::invalid_argument);
  EXPECT_THROW(cluster::make_partition_plan(8, 2, sim::Time::zero()),
               std::invalid_argument);
  // And through the cluster: an impossible --partitions fails at
  // construction, not mid-run.
  cluster::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.partitions = 16;
  EXPECT_THROW(cluster::Cluster c(cfg), std::invalid_argument);
}

}  // namespace
