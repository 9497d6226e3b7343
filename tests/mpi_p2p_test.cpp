// Point-to-point MPI semantics across all three devices.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/frame_pool.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::View;
using sim::Task;
using sim::Time;

class P2PAllNets : public ::testing::TestWithParam<Net> {};

constexpr int kPingPongRounds = 1000;

INSTANTIATE_TEST_SUITE_P(AllNets, P2PAllNets,
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

TEST_P(P2PAllNets, BlockingSendRecvMovesRealData) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  std::vector<int> got(256, 0);
  c.run([&got](Comm& comm) -> Task<> {
    std::vector<int> data(256);
    std::iota(data.begin(), data.end(), comm.rank() * 1000);
    if (comm.rank() == 0) {
      co_await comm.send(View::in(data.data(), data.size() * 4), 1, 7);
    } else {
      auto st = co_await comm.recv(View::out(got.data(), got.size() * 4), 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 1024u);
    }
  });
  for (int i = 0; i < 256; ++i) EXPECT_EQ(got[i], i);
}

TEST_P(P2PAllNets, LargeMessageMovesRealData) {
  // Crosses every rendezvous threshold (64 KB).
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  const std::size_t n = 16384;
  std::vector<double> got(n, 0.0);
  c.run([&got, n](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      std::vector<double> data(n);
      for (std::size_t i = 0; i < n; ++i) data[i] = 0.5 * static_cast<double>(i);
      co_await comm.send(View::in(data.data(), n * 8), 1, 0);
    } else {
      co_await comm.recv(View::out(got.data(), n * 8), 0, 0);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(got[i], 0.5 * static_cast<double>(i));
  }
}

TEST_P(P2PAllNets, UnexpectedMessageIsBuffered) {
  // Sender fires before the receiver posts: the message must wait in the
  // unexpected queue and still deliver correctly.
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  int got = 0;
  c.run([&got](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      int v = 42;
      co_await comm.send(View::in(&v, 4), 1, 3);
    } else {
      co_await comm.compute(100e-6);  // 100 us: message arrives first
      co_await comm.recv(View::out(&got, 4), 0, 3);
    }
  });
  EXPECT_EQ(got, 42);
}

TEST_P(P2PAllNets, UnexpectedLargeMessage) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  const std::size_t n = 64 << 10;
  std::vector<char> got(n, 0);
  c.run([&got, n](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      std::vector<char> data(n, 'x');
      co_await comm.send(View::in(data.data(), n), 1, 1);
    } else {
      co_await comm.compute(3e-3);
      co_await comm.recv(View::out(got.data(), n), 0, 1);
    }
  });
  EXPECT_EQ(got[0], 'x');
  EXPECT_EQ(got[n - 1], 'x');
}

TEST_P(P2PAllNets, NonOvertakingSamePair) {
  // Ten same-tag messages must arrive in order regardless of size mix.
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  std::vector<int> order;
  c.run([&order](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t sz = (i % 3 == 0) ? 64 : (128 << 10);
        co_await comm.send(View::synth(0x1000 + i * 0x100000, sz), 1, 5);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t sz = (i % 3 == 0) ? 64 : (128 << 10);
        auto st = co_await comm.recv(View::synth(0x9000000 + i * 0x100000, sz),
                                     0, 5);
        order.push_back(static_cast<int>(st.bytes));
      }
    }
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], (i % 3 == 0) ? 64 : (128 << 10)) << i;
  }
}

TEST_P(P2PAllNets, AnySourceAnyTag) {
  ClusterConfig cfg{.nodes = 4, .net = GetParam()};
  Cluster c(cfg);
  std::vector<int> sources;
  c.run([&sources](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      for (int i = 1; i < 4; ++i) {
        int x = 0;
        auto st = co_await comm.recv(View::out(&x, 4));
        EXPECT_EQ(x, st.source * 10);
        sources.push_back(st.source);
      }
    } else {
      int v = comm.rank() * 10;
      co_await comm.send(View::in(&v, 4), 0, comm.rank());
    }
  });
  EXPECT_EQ(sources.size(), 3u);
}

TEST_P(P2PAllNets, IsendIrecvWaitAll) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  std::vector<int> got(4, 0);
  c.run([&got](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      std::vector<int> vals{1, 2, 3, 4};
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(co_await comm.isend(View::in(&vals[i], 4), 1, i));
      }
      co_await comm.wait_all(std::move(reqs));
    } else {
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(co_await comm.irecv(View::out(&got[i], 4), 0, i));
      }
      co_await comm.wait_all(std::move(reqs));
    }
  });
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST_P(P2PAllNets, SendrecvExchange) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  std::vector<int> got(2, -1);
  c.run([&got](Comm& comm) -> Task<> {
    const int me = comm.rank();
    const int peer = 1 - me;
    int mine = me + 100;
    int theirs = -1;
    co_await comm.sendrecv(View::in(&mine, 4), peer, 0,
                           View::out(&theirs, 4), peer, 0);
    got[static_cast<std::size_t>(me)] = theirs;
  });
  EXPECT_EQ(got[0], 101);
  EXPECT_EQ(got[1], 100);
}

TEST_P(P2PAllNets, IntraNodeSendRecv) {
  ClusterConfig cfg{.nodes = 1, .ppn = 2, .net = GetParam()};
  Cluster c(cfg);
  int small = 0;
  std::vector<char> big(256 << 10, 0);
  c.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      int v = 9;
      co_await comm.send(View::in(&v, 4), 1, 0);
      std::vector<char> data(256 << 10, 'z');
      co_await comm.send(View::in(data.data(), data.size()), 1, 1);
    } else {
      co_await comm.recv(View::out(&small, 4), 0, 0);
      co_await comm.recv(View::out(big.data(), big.size()), 0, 1);
    }
  });
  EXPECT_EQ(small, 9);
  EXPECT_EQ(big[0], 'z');
  EXPECT_EQ(big[big.size() - 1], 'z');
}

TEST_P(P2PAllNets, PingPongLatencyIsPlausible) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  double lat_us = 0;
  c.run([&lat_us](Comm& comm) -> Task<> {
    const int iters = 100;
    char b[4] = {};
    if (comm.rank() == 0) {
      const double t0 = comm.wtime();
      for (int i = 0; i < iters; ++i) {
        co_await comm.send(View::in(b, 4), 1, 0);
        co_await comm.recv(View::out(b, 4), 1, 0);
      }
      lat_us = (comm.wtime() - t0) / (2.0 * iters) * 1e6;
    } else {
      for (int i = 0; i < iters; ++i) {
        co_await comm.recv(View::out(b, 4), 0, 0);
        co_await comm.send(View::in(b, 4), 0, 0);
      }
    }
  });
  // All three are single-digit microseconds in the paper (Fig. 1).
  EXPECT_GT(lat_us, 3.0);
  EXPECT_LT(lat_us, 10.0);
}

TEST_P(P2PAllNets, SyntheticViewsMoveNoData) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  c.run([](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(View::synth(0xA0000, 1 << 20), 1, 0);
    } else {
      auto st = co_await comm.recv(View::synth(0xB0000, 1 << 20), 0, 0);
      EXPECT_EQ(st.bytes, 1u << 20);
    }
  });
}

// Coroutine frames allocated per message of an 8-byte ping-pong, pinned
// at the count reached with the leaf waits (Cpu, Pipe, Request), Comm's
// wait and compute as plain awaiters and the device continuations as
// plain events: any of them turning back into a Task raises it.
TEST_P(P2PAllNets, PingPongFrameBudgetPerMessage) {
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  std::uint64_t frames = 0;
  c.run([&frames](Comm& comm) -> Task<> {
    const View buf = View::synth(0x1000 * (comm.rank() + 1), 8);
    const int peer = 1 - comm.rank();
    const std::uint64_t before = sim::frame_pool::stats().allocated;
    for (int i = 0; i < kPingPongRounds; ++i) {
      if (comm.rank() == 0) {
        co_await comm.send(buf, peer, 0);
        co_await comm.recv(buf, peer, 0);
      } else {
        co_await comm.recv(buf, peer, 0);
        co_await comm.send(buf, peer, 0);
      }
    }
    if (comm.rank() == 0) {
      frames = sim::frame_pool::stats().allocated - before;
    }
  });
  // Rank 1 starts inside rank 0's window, so the count also holds rank
  // 1's start-up frame; the whole-frames-per-message quotient drops it.
  const std::uint64_t per_msg = frames / (2 * kPingPongRounds);
  std::uint64_t budget = 0;
  switch (GetParam()) {
    case Net::kInfiniBand: budget = 6; break;
    case Net::kMyrinet: budget = 6; break;
    case Net::kQuadrics: budget = 5; break;
  }
  EXPECT_LE(per_msg, budget) << frames << " frames in "
                             << 2 * kPingPongRounds << " messages";
}

TEST(MpiErrors, BadDestinationThrows) {
  ClusterConfig cfg{.nodes = 2, .net = Net::kInfiniBand};
  Cluster c(cfg);
  EXPECT_THROW(c.run([](Comm& comm) -> Task<> {
                 if (comm.rank() == 0) {
                   co_await comm.send(View::synth(1, 4), 7, 0);
                 }
               }),
               std::invalid_argument);
}

}  // namespace
