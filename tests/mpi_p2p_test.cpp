// Point-to-point MPI semantics across all three devices.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cluster/cluster.hpp"
#include "leaf_wait.hpp"
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
// point-to-point calls, wait and compute as plain awaiters, the device
// sends, claims and continuations as plain events and the NIC sender as a
// state machine: any of them turning back into a Task raises it.
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
  EXPECT_EQ(per_msg, 0u) << frames << " frames in " << 2 * kPingPongRounds
                         << " messages";
}

// Each node's NIC sender is a state machine started by an event of its
// own, not a spawned coroutine: building a cluster allocates no frame.
TEST(P2PFrames, ClusterConstructionAllocatesNoSenderFrame) {
  for (const Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
    SCOPED_TRACE(static_cast<int>(net));
    const std::uint64_t before = sim::frame_pool::stats().allocated;
    Cluster c(ClusterConfig{.nodes = 4, .ppn = 2, .net = net});
    EXPECT_EQ(sim::frame_pool::stats().allocated - before, 0u);
  }
}

// send, recv, isend, irecv and sendrecv are plain awaiters, and the device
// runs the send and the unexpected-message claim as chains of events: the
// call allocates no coroutine frame, and rank 0 resumes at the instant the
// coroutines they replace resumed it. Each case is one message between
// ranks 0 and 1 on one path: eager, rendezvous, shared memory or NIC
// loopback, and the Elan's NIC-matched and buffered sends. Its receive is
// either posted before the message arrives (the receiving rank calls at
// 1 us, the sender at 200 us) or not (the sender at 1 us, the receiver at
// 200 us, so an unexpected message waits to be claimed).
enum class P2PCall { kSend, kRecv, kIsend, kIrecv, kSendrecv };

struct P2PPath {
  const char* name;
  Net net;
  std::size_t nodes;
  int ppn;
  std::uint64_t bytes;
};

test_support::LeafWait p2p_leaf_wait(const P2PPath& path, P2PCall call,
                                     bool posted) {
  ClusterConfig cfg{.nodes = path.nodes, .ppn = path.ppn, .net = path.net};
  Cluster c(cfg);
  test_support::LeafWait out;
  // Does rank 0 receive (and so go first when the receive is posted)?
  const bool receives = call == P2PCall::kRecv || call == P2PCall::kIrecv ||
                        call == P2PCall::kSendrecv;
  const double early = 1e-6;
  const double late = 200e-6;
  const double t0 = receives == posted ? early : late;
  const double t1 = receives == posted ? late : early;
  c.run([&](Comm& comm) -> Task<> {
    const View sbuf = View::synth(0x10000 * (comm.rank() + 1), path.bytes);
    const View rbuf = View::synth(0x80000 * (comm.rank() + 1), path.bytes);
    if (comm.rank() == 1) {
      co_await comm.compute(t1);
      switch (call) {
        case P2PCall::kSend:
        case P2PCall::kIsend:
          co_await comm.recv(rbuf, 0, 5);
          break;
        case P2PCall::kRecv:
        case P2PCall::kIrecv:
          co_await comm.send(sbuf, 0, 5);
          break;
        case P2PCall::kSendrecv:
          co_await comm.sendrecv(sbuf, 0, 5, rbuf, 0, 5);
          break;
      }
      co_return;
    }
    co_await comm.compute(t0);
    const std::uint64_t before = sim::frame_pool::stats().allocated;
    mpi::Request req;
    switch (call) {
      case P2PCall::kSend:
        co_await comm.send(sbuf, 1, 5);
        break;
      case P2PCall::kRecv:
        co_await comm.recv(rbuf, 1, 5);
        break;
      case P2PCall::kIsend:
        req = co_await comm.isend(sbuf, 1, 5);
        break;
      case P2PCall::kIrecv:
        req = co_await comm.irecv(rbuf, 1, 5);
        break;
      case P2PCall::kSendrecv:
        co_await comm.sendrecv(sbuf, 1, 5, rbuf, 1, 5);
        break;
    }
    out.frames = sim::frame_pool::stats().allocated - before;
    out.resumed = comm.now();
    co_await comm.wait(req);
  });
  return out;
}

// Rank 0's resume instants in ps, per path, for send, recv, isend, irecv
// and sendrecv: with the receive posted, then with it unexpected.
struct P2PLeafCase {
  P2PPath path;
  std::int64_t posted_ps[5];
  std::int64_t unexpected_ps[5];
};

const P2PLeafCase kP2PLeafCases[] = {
    {{"IbEager", Net::kInfiniBand, 2, 1, 8},
     {203'622'237, 206'706'474, 200'845'000, 1'000'000, 207'471'474},
     {4'622'237, 200'765'000, 1'845'000, 200'765'000, 204'387'237}},
    {{"IbRendezvous", Net::kInfiniBand, 2, 1, 64 << 10},
     {397'276'496, 403'030'028, 249'780'000, 1'000'000, 455'084'754},
     {342'442'964, 348'196'496, 50'780'000, 249'400'000, 449'331'222}},
    {{"IbSharedMemory", Net::kInfiniBand, 1, 2, 8},
     {201'095'000, 201'580'000, 201'095'000, 1'000'000, 201'865'000},
     {2'095'000, 200'285'000, 2'095'000, 200'285'000, 201'380'000}},
    {{"IbLoopback", Net::kInfiniBand, 1, 2, 64 << 10},
     {451'008'834, 456'498'366, 249'780'000, 1'000'000, 598'435'504},
     {396'439'302, 401'928'834, 50'780'000, 249'400'000, 592'945'972}},
    {{"GmEager", Net::kMyrinet, 2, 1, 8},
     {203'201'112, 206'690'224, 200'315'000, 1'000'000, 207'155'224},
     {4'201'112, 200'465'000, 1'315'000, 200'465'000, 203'666'112}},
    {{"GmRendezvous", Net::kMyrinet, 2, 1, 64 << 10},
     {570'440'851, 576'637'717, 239'450'000, 1'000'000, 811'455'338},
     {525'193'985, 531'390'851, 40'450'000, 239'400'000, 805'258'472}},
    {{"GmSharedMemory", Net::kMyrinet, 1, 2, 8},
     {200'695'000, 201'320'000, 200'695'000, 1'000'000, 201'745'000},
     {1'695'000, 200'425'000, 1'695'000, 200'425'000, 201'120'000}},
    {{"ElanBuffered", Net::kQuadrics, 2, 1, 8},
     {206'153'457, 211'406'914, 201'700'000, 1'800'000, 213'071'914},
     {7'153'457, 201'665'000, 2'700'000, 201'665'000, 207'818'457}},
    {{"ElanNicMatched", Net::kQuadrics, 2, 1, 64 << 10},
     {423'001'435, 430'001'435, 201'700'000, 1'800'000, 441'430'695},
     {224'001'435, 231'001'435, 2'700'000, 200'800'000, 434'430'695}},
    {{"ElanLoopback", Net::kQuadrics, 1, 2, 8},
     {207'853'457, 212'856'914, 201'700'000, 1'800'000, 214'521'914},
     {8'853'457, 201'665'000, 2'700'000, 201'665'000, 209'518'457}},
};

class P2PLeafWait : public ::testing::TestWithParam<P2PLeafCase> {};

INSTANTIATE_TEST_SUITE_P(
    Paths, P2PLeafWait, ::testing::ValuesIn(kP2PLeafCases),
    [](const auto& info) { return std::string(info.param.path.name); });

TEST_P(P2PLeafWait, CallsResumeCallerWithoutAFrame) {
  const P2PLeafCase& c = GetParam();
  const char* names[] = {"send", "recv", "isend", "irecv", "sendrecv"};
  for (int i = 0; i < 5; ++i) {
    for (const bool posted : {true, false}) {
      SCOPED_TRACE(std::string(names[i]) +
                   (posted ? " posted" : " unexpected"));
      const auto w = p2p_leaf_wait(c.path, static_cast<P2PCall>(i), posted);
      EXPECT_EQ(w.frames, 0u);
      EXPECT_EQ(w.resumed.count_ps(),
                posted ? c.posted_ps[i] : c.unexpected_ps[i]);
    }
  }
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
