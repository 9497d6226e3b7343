// Property and stress tests: randomized traffic with invariants checked
// (delivery, per-pair ordering, payload integrity, determinism), plus
// failure-injection for API misuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/rng.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::Request;
using mpi::View;
using sim::Task;

class StressAllNets : public ::testing::TestWithParam<Net> {};

INSTANTIATE_TEST_SUITE_P(AllNets, StressAllNets,
                         ::testing::Values(Net::kInfiniBand, Net::kMyrinet,
                                           Net::kQuadrics),
                         [](const auto& info) {
                           switch (info.param) {
                             case Net::kInfiniBand: return "IBA";
                             case Net::kMyrinet: return "Myri";
                             case Net::kQuadrics: return "QSN";
                           }
                           return "?";
                         });

// Every rank fires a random mix of sizes at random peers with sequenced
// payloads; receivers check that per-(source,tag) sequence numbers arrive
// in order and no message is lost or corrupted.
TEST_P(StressAllNets, RandomTrafficPreservesOrderAndData) {
  ClusterConfig cfg{.nodes = 4, .ppn = 2, .net = GetParam()};
  Cluster c(cfg);
  const int np = c.ranks();
  const int kMsgs = 60;  // per sender, to each peer

  std::vector<std::vector<int>> received_seq(
      static_cast<std::size_t>(np),
      std::vector<int>(static_cast<std::size_t>(np), 0));
  bool ok = true;

  c.run([&](Comm& comm) -> Task<> {
    const int me = comm.rank();
    util::Rng rng(1234 + static_cast<unsigned>(me));

    // Receiver side first: post all irecvs sized worst-case.
    struct Slot {
      std::vector<std::int64_t> buf;
      Request req;
    };
    std::vector<Slot> slots;
    for (int src = 0; src < np; ++src) {
      if (src == me) continue;
      for (int i = 0; i < kMsgs; ++i) {
        slots.emplace_back();
        slots.back().buf.assign(1 << 12, -1);
        slots.back().req = co_await comm.irecv(
            View::out(slots.back().buf.data(), slots.back().buf.size() * 8),
            src, /*tag=*/src);
      }
    }

    // Sender side: random sizes, seq-stamped payloads.
    for (int i = 0; i < kMsgs; ++i) {
      for (int dst = 0; dst < np; ++dst) {
        if (dst == me) continue;
        const std::uint64_t words = 1 + rng.below(1 << 10);
        std::vector<std::int64_t> payload(static_cast<std::size_t>(words));
        payload[0] = i;  // sequence number
        for (std::size_t w = 1; w < payload.size(); ++w) {
          payload[w] = static_cast<std::int64_t>(me) * 1000000 + i;
        }
        co_await comm.send(View::in(payload.data(), words * 8), dst, me);
      }
    }

    // Drain and check.
    for (auto& s : slots) {
      const auto st = co_await comm.wait(s.req);
      const int src = st.source;
      const auto seq = s.buf[0];
      auto& expect = received_seq[static_cast<std::size_t>(me)]
                                 [static_cast<std::size_t>(src)];
      if (seq != expect) ok = false;  // per-pair order violated
      ++expect;
      const auto words = st.bytes / 8;
      for (std::uint64_t w = 1; w < words; ++w) {
        if (s.buf[static_cast<std::size_t>(w)] !=
            static_cast<std::int64_t>(src) * 1000000 + seq) {
          ok = false;  // payload corrupted
        }
      }
    }
  });

  EXPECT_TRUE(ok) << "ordering or payload violation";
  for (int r = 0; r < np; ++r) {
    for (int s = 0; s < np; ++s) {
      if (r == s) continue;
      EXPECT_EQ(received_seq[r][s], kMsgs) << "lost messages " << s << "->" << r;
    }
  }
}

TEST_P(StressAllNets, DeterministicAcrossRuns) {
  // Identical programs must produce bit-identical simulated end times.
  auto run_sym = [&] {
    ClusterConfig cfg{.nodes = 4, .ppn = 1, .net = GetParam()};
    Cluster c(cfg);
    c.run([](Comm& comm) -> Task<> {
      util::Rng rng(77);
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t bytes = 8 << rng.below(12);
        const int peer = comm.rank() ^ 1;
        co_await comm.sendrecv(View::synth(0x1000 + i, bytes), peer, 0,
                               View::synth(0x900000 + i, bytes), peer, 0);
      }
    });
    return c.engine().now();
  };
  const auto a = run_sym();
  const auto b = run_sym();
  EXPECT_EQ(a, b);
}

TEST_P(StressAllNets, ManyOutstandingRequests) {
  // 256 concurrent irecv/isend pairs per direction; all must complete.
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  int completed = 0;
  c.run([&](Comm& comm) -> Task<> {
    const int peer = 1 - comm.rank();
    std::vector<Request> reqs;
    for (int i = 0; i < 256; ++i) {
      reqs.push_back(co_await comm.irecv(
          View::synth(0x5000000 + i * 0x1000, 1024), peer, i));
    }
    for (int i = 0; i < 256; ++i) {
      reqs.push_back(co_await comm.isend(
          View::synth(0x9000000 + i * 0x1000, 1024), peer, i));
    }
    co_await comm.wait_all(std::move(reqs));
    ++completed;
  });
  EXPECT_EQ(completed, 2);
}

TEST_P(StressAllNets, MixedCollectivesAndP2P) {
  ClusterConfig cfg{.nodes = 8, .net = GetParam()};
  Cluster c(cfg);
  std::vector<double> finals(8, -1);
  c.run([&](Comm& comm) -> Task<> {
    const int me = comm.rank();
    double acc = me;
    for (int round = 0; round < 5; ++round) {
      // Shift pattern p2p.
      const int to = (me + 1 + round) % comm.size();
      const int from = (me - 1 - round + 2 * comm.size()) % comm.size();
      double incoming = 0;
      co_await comm.sendrecv(View::in(&acc, 8), to, round,
                             View::out(&incoming, 8), from, round);
      acc += incoming;
      co_await comm.allreduce(View::out(&acc, 8), 1, mpi::Dtype::kDouble,
                              mpi::ROp::kMax);
      co_await comm.barrier();
    }
    finals[static_cast<std::size_t>(me)] = acc;
  });
  for (int r = 1; r < 8; ++r) EXPECT_DOUBLE_EQ(finals[r], finals[0]);
}

TEST(MpiMisuse, PpnOutOfRangeThrows) {
  EXPECT_THROW(Cluster(ClusterConfig{.nodes = 2, .ppn = 3}),
               std::invalid_argument);
  EXPECT_THROW(Cluster(ClusterConfig{.nodes = 0}), std::invalid_argument);
}

TEST(MpiMisuse, AlltoallvBadCountsThrow) {
  ClusterConfig cfg{.nodes = 2, .net = Net::kInfiniBand};
  Cluster c(cfg);
  EXPECT_THROW(
      c.run([](Comm& comm) -> Task<> {
        std::vector<std::uint64_t> wrong{64};  // needs one per rank
        co_await comm.alltoallv(View::synth(1, 128), wrong,
                                View::synth(2, 128), wrong);
      }),
      std::invalid_argument);
}

// Rank arguments are checked the way send checks its destination. An
// unchecked bcast root of size() ran as root 0 on InfiniBand and Myrinet
// and deadlocked on Quadrics (the hardware path waits for a root that never
// broadcasts); a receive from rank size() never matched. The time limit
// turns a probe that would poll forever into an error as well.
void expect_invalid_argument(Net net, const Cluster::RankMain& rank_main) {
  SCOPED_TRACE(static_cast<int>(net));
  ClusterConfig cfg{.nodes = 2, .net = net, .max_sim_time = sim::Time::ms(1)};
  Cluster c(cfg);
  EXPECT_THROW(c.run(rank_main), std::invalid_argument);
}

TEST(MpiMisuse, RootOutOfRangeThrows) {
  for (const Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
    for (const mpi::Rank root : {-1, 2}) {
      SCOPED_TRACE(root);
      expect_invalid_argument(net, [root](Comm& comm) -> Task<> {
        co_await comm.bcast(View::synth(1, 64), root);
      });
      expect_invalid_argument(net, [root](Comm& comm) -> Task<> {
        co_await comm.reduce(View::synth(1, 64), 8, mpi::Dtype::kDouble,
                             mpi::ROp::kSum, root);
      });
    }
  }
}

TEST(MpiMisuse, SourceOutOfRangeThrows) {
  for (const Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
    for (const mpi::Rank bad : {-1, 2}) {
      SCOPED_TRACE(bad);
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) co_await comm.recv(View::synth(1, 64), bad, 0);
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          Request r = co_await comm.irecv(View::synth(1, 64), bad, 0);
          co_await comm.wait(r);
        }
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) co_await comm.probe(bad, 0);
      });
      // sendrecv checks both ranks before it posts its receive.
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          co_await comm.sendrecv(View::synth(1, 64), 1, 0,
                                 View::synth(2, 64), bad, 0);
        }
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          co_await comm.sendrecv(View::synth(1, 64), bad, 0,
                                 View::synth(2, 64), 1, 0);
        }
      });
    }
  }
}

// User tags lie in [0, kCollectiveTagBase); the collectives' internal
// messages use the tags from kCollectiveTagBase up. Unchecked, rank 0's
// send of 7 with tag kCollectiveTagBase matched rank 1's next bcast, which
// returned 7, and the bcast's 42 went to a later recv on that tag. Each
// call checks its tags at the call, as it checks its ranks; a receive may
// also name kAnyTag.
TEST(MpiMisuse, TagOutsideUserRangeThrows) {
  for (const Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
    expect_invalid_argument(net, [](Comm& comm) -> Task<> {
      double v = comm.rank() == 0 ? 7 : 0;
      if (comm.rank() == 0) {
        co_await comm.send(View::in(&v, 8), 1, mpi::kCollectiveTagBase);
      }
      v = 42;
      co_await comm.bcast(View::out(&v, 8), 0);
    });
    for (const mpi::Tag bad : {mpi::kCollectiveTagBase, mpi::Tag{-7}}) {
      SCOPED_TRACE(bad);
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) co_await comm.send(View::synth(1, 64), 1, bad);
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          Request r = co_await comm.isend(View::synth(1, 64), 1, bad);
          co_await comm.wait(r);
        }
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) co_await comm.recv(View::synth(1, 64), 1, bad);
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          Request r = co_await comm.irecv(View::synth(1, 64), 1, bad);
          co_await comm.wait(r);
        }
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) co_await comm.probe(1, bad);
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          co_await comm.sendrecv(View::synth(1, 64), 1, bad,
                                 View::synth(2, 64), 1, 0);
        }
      });
      expect_invalid_argument(net, [bad](Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          co_await comm.sendrecv(View::synth(1, 64), 1, 0,
                                 View::synth(2, 64), 1, bad);
        }
      });
    }
    // kAnyTag names no message: it is a receive's wildcard only.
    expect_invalid_argument(net, [](Comm& comm) -> Task<> {
      if (comm.rank() == 0) {
        co_await comm.send(View::synth(1, 64), 1, mpi::kAnyTag);
      }
    });
  }
}

// A reduction checks its `count` elements of `dtype` against the view
// before it posts anything, real and synthetic views alike: the combine
// step would otherwise run past the end of a real buffer.
TEST(MpiMisuse, ReduceCountBeyondViewThrows) {
  for (const Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
    expect_invalid_argument(net, [](Comm& comm) -> Task<> {
      co_await comm.allreduce(View::synth(1, 64), 9, mpi::Dtype::kDouble,
                              mpi::ROp::kSum);
    });
    expect_invalid_argument(net, [](Comm& comm) -> Task<> {
      co_await comm.reduce(View::synth(1, 4), 5, mpi::Dtype::kByte,
                           mpi::ROp::kSum, 0);
    });
    expect_invalid_argument(net, [](Comm& comm) -> Task<> {
      std::int64_t v[4] = {};  // the view covers two of them
      co_await comm.allreduce(View::out(v, 16), 3, mpi::Dtype::kInt64,
                              mpi::ROp::kSum);
    });
  }
}

TEST(MpiMisuse, UnmatchedRecvDeadlocks) {
  // A receive with no sender must surface as a simulation deadlock, not a
  // hang or silent completion.
  ClusterConfig cfg{.nodes = 2, .net = Net::kInfiniBand};
  Cluster c(cfg);
  EXPECT_THROW(c.run([](Comm& comm) -> Task<> {
                 if (comm.rank() == 0) {
                   co_await comm.recv(View::synth(1, 64), 1, 42);
                 }
               }),
               sim::DeadlockError);
}

TEST(MpiMisuse, MismatchedCollectiveDeadlocks) {
  ClusterConfig cfg{.nodes = 2, .net = Net::kQuadrics};
  Cluster c(cfg);
  EXPECT_THROW(c.run([](Comm& comm) -> Task<> {
                 if (comm.rank() == 0) co_await comm.barrier();
                 // rank 1 never arrives
               }),
               sim::DeadlockError);
}

}  // namespace
