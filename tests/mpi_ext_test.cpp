// Extended MPI API: probe (blocking, with wildcards, and handling
// rendezvous protocol work between its polls), the non-blocking matcher
// peek under it, and early completion of a small eager send.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpi/mpi.hpp"
#include "mpi/proc.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::View;
using sim::Task;

class ExtAllNets : public ::testing::TestWithParam<Net> {};

INSTANTIATE_TEST_SUITE_P(AllNets, ExtAllNets,
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

TEST_P(ExtAllNets, ProbeThenRecvBySize) {
  // The classic probe use: learn the size, then size the receive buffer.
  // The sender starts late, so the probe must see the message only once
  // it has been delivered, not answer from an empty queue.
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  std::vector<std::int32_t> got;
  double sent_at = 0, probed_at = 0;
  c.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.compute(50e-6);
      std::vector<std::int32_t> data(37);
      std::iota(data.begin(), data.end(), 5);
      sent_at = comm.wtime();
      co_await comm.send(View::in(data.data(), data.size() * 4), 1, 9);
    } else {
      const auto st = co_await comm.probe(0, 9);
      probed_at = comm.wtime();
      EXPECT_EQ(st.bytes, 37u * 4);
      got.resize(st.bytes / 4);
      co_await comm.recv(View::out(got.data(), st.bytes), 0, 9);
    }
  });
  ASSERT_EQ(got.size(), 37u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<std::int32_t>(i) + 5);
  }
  // Delivery takes at least a wire latency (microseconds on every net).
  EXPECT_GE(probed_at, sent_at + 1e-6);
}

TEST_P(ExtAllNets, IprobeSeesArrivalOnlyAfterDelivery) {
  // A non-blocking probe is the matcher peek `probe` polls, taken on MPI
  // entry: deferred deliveries drain first, then the unexpected queue is
  // read without consuming anything.
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  const auto iprobe = [&c](Comm& comm, mpi::Rank src, mpi::Tag tag) {
    auto& p = c.mpi().proc(comm.rank());
    sim::MpiScope scope(p.cpu());
    p.drain_deferred();
    return p.matcher().peek_unexpected(src, tag) != nullptr;
  };
  bool before = true, after = false;
  c.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.compute(50e-6);
      int v = 1;
      co_await comm.send(View::in(&v, 4), 1, 3);
    } else {
      before = iprobe(comm, 0, 3);  // nothing sent yet
      co_await comm.compute(500e-6);
      after = iprobe(comm, 0, 3);  // message waiting by now
      int v = 0;
      co_await comm.recv(View::out(&v, 4), 0, 3);
      EXPECT_FALSE(iprobe(comm, 0, 3));  // consumed
    }
  });
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST_P(ExtAllNets, PlainSmallSendDoesNotWait) {
  // A small send takes the eager path: it buffers and returns before the
  // receiver shows up.
  ClusterConfig cfg{.nodes = 2, .net = GetParam()};
  Cluster c(cfg);
  double send_done = 1.0;
  c.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      int v = 7;
      co_await comm.send(View::in(&v, 4), 1, 0);
      send_done = comm.wtime();
    } else {
      co_await comm.compute(300e-6);
      int v = 0;
      co_await comm.recv(View::out(&v, 4), 0, 0);
    }
  });
  EXPECT_LT(send_done, 100e-6);
}

TEST_P(ExtAllNets, RendezvousProgressesWhileProbing) {
  // A blocked probe spins inside MPI like a blocked wait, so protocol
  // work arriving between its polls (the RTS of a rendezvous send) is
  // handled at once, not deferred as if the rank were computing. Rank 1's
  // 64 KB send to a posted receive must complete at the same instant
  // whether rank 0 waits on that receive or probes for a later message.
  const auto send_done = [](Net net, bool probe) {
    ClusterConfig cfg{.nodes = 2, .net = net};
    Cluster c(cfg);
    std::int64_t done_ps = 0;
    c.run([&](Comm& comm) -> Task<> {
      const View big = View::synth(0x100000, 64 << 10);
      const View small = View::synth(0x400000, 8);
      if (comm.rank() == 0) {
        mpi::Request r = co_await comm.irecv(big, 1, 1);
        if (probe) {
          const auto st = co_await comm.probe(1, 2);
          EXPECT_EQ(st.bytes, 8u);
          co_await comm.recv(small, 1, 2);
          co_await comm.wait(r);
        } else {
          co_await comm.wait(r);
          co_await comm.recv(small, 1, 2);
        }
      } else {
        co_await comm.send(big, 0, 1);
        done_ps = comm.now().count_ps();
        co_await comm.compute(200e-6);
        co_await comm.send(small, 0, 2);
      }
    });
    return done_ps;
  };
  const std::int64_t waiting = send_done(GetParam(), false);
  EXPECT_GT(waiting, 0);
  EXPECT_EQ(send_done(GetParam(), true), waiting);
}

TEST_P(ExtAllNets, ProbeWithWildcards) {
  ClusterConfig cfg{.nodes = 4, .net = GetParam()};
  Cluster c(cfg);
  int probed_source = -1;
  c.run([&](Comm& comm) -> Task<> {
    if (comm.rank() == 3) {
      const auto st = co_await comm.probe(mpi::kAnySource, mpi::kAnyTag);
      probed_source = st.source;
      int v = 0;
      co_await comm.recv(View::out(&v, 4), st.source, st.tag);
      EXPECT_EQ(v, st.source * 11);
    } else if (comm.rank() == 1) {
      int v = 11;
      co_await comm.send(View::in(&v, 4), 3, 77);
    }
  });
  EXPECT_EQ(probed_source, 1);
}

}  // namespace
