// Steady-state allocation audit of the per-message MPI path.
//
// This binary replaces the global operator new with a counting one. Each
// case runs a two-rank message loop on one fabric; after a warm-up (which
// fills the request, record, matcher, event-queue and coroutine-frame
// pools) further eager, unexpected, rendezvous and Elan buffered and
// zero-copy sends — between nodes or within one — must not allocate at
// all: no per-message or per-handshake constant is allowed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cluster/cluster.hpp"
#include "mpi/comm.hpp"

namespace {
// Plain counter: every case runs a sequential (one-thread) cluster.
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  ++g_allocs;
  const auto al = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(al, (n + al - 1) / al * al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::View;
using sim::Task;

struct Case {
  Net net;
  bool intra;  // both ranks on one node (shared memory / NIC loopback)
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(cluster::net_name(info.param.net)) +
         (info.param.intra ? "_IntraNode" : "_InterNode");
}

constexpr int kWarmup = 16;
constexpr int kMeasured = 64;

struct Window {
  std::uint64_t before = 0;
  std::uint64_t after = 0;
};

// One iteration: an expected eager send, an unexpected eager send (the
// receiver computes while it arrives, so IB/GM defer it to the next MPI
// entry), an expected and an unexpected large send (rendezvous on IB/GM,
// zero-copy on Elan), and a nonblocking exchange of small messages.
Task<> message_loop(Comm& comm, Window& w) {
  const int me = comm.rank();
  const int peer = me ^ 1;
  const auto base = 0x10'0000ULL * static_cast<std::uint64_t>(me + 1);
  const View small = View::synth(base, 256);
  const View large = View::synth(base + 0x1'0000, 256 * 1024);
  const View small_in = View::synth(base + 0x8'0000, 256);
  for (int it = 0; it < kWarmup + kMeasured; ++it) {
    if (it == kWarmup && me == 0) w.before = g_allocs;
    if (me == 0) {
      co_await comm.compute(20e-6);
      co_await comm.send(small, peer, 1);      // expected
      co_await comm.send(small, peer, 2);      // unexpected
      co_await comm.compute(20e-6);
      co_await comm.send(large, peer, 3);      // expected
      co_await comm.send(large, peer, 4);      // unexpected
    } else {
      co_await comm.recv(small, peer, 1);
      co_await comm.compute(40e-6);
      co_await comm.recv(small, peer, 2);
      co_await comm.recv(large, peer, 3);
      co_await comm.compute(400e-6);
      co_await comm.recv(large, peer, 4);
    }
    mpi::Request r = co_await comm.irecv(small_in, peer, 5);
    mpi::Request s = co_await comm.isend(small, peer, 5);
    co_await comm.wait(s);
    co_await comm.wait(r);
  }
  if (me == 0) w.after = g_allocs;
}

class SteadyStateAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(SteadyStateAllocations, MessagesAfterWarmupAllocateNothing) {
  const Case c = GetParam();
  ClusterConfig cfg;
  cfg.nodes = c.intra ? 1 : 2;
  cfg.ppn = c.intra ? 2 : 1;
  cfg.net = c.net;
  Cluster cl(cfg);
  Window w;
  cl.run([&](Comm& comm) -> Task<> { co_await message_loop(comm, w); });
  ASSERT_GT(w.after, 0u) << "measurement window never closed";
  EXPECT_EQ(w.after - w.before, 0u)
      << (w.after - w.before) << " allocations in " << kMeasured
      << " steady-state iterations";
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, SteadyStateAllocations,
                         ::testing::Values(Case{Net::kInfiniBand, false},
                                           Case{Net::kMyrinet, false},
                                           Case{Net::kQuadrics, false},
                                           Case{Net::kInfiniBand, true},
                                           Case{Net::kMyrinet, true},
                                           Case{Net::kQuadrics, true}),
                         case_name);

}  // namespace
