// Tests for the three interconnect fabric models (below the MPI layer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "elan/elan_fabric.hpp"
#include "gm/gm_fabric.hpp"
#include "ib/ib_fabric.hpp"
#include "shm/shm_domain.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace mns;
using sim::Engine;
using sim::Task;
using sim::Time;

class FabricFixture : public ::testing::Test {
 protected:
  void build_nodes(std::size_t n, bool pcix = true) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_owned.push_back(std::make_unique<model::NodeHw>(
          eng, pcix ? model::pcix_133() : model::pci_66(),
          model::xeon_2003_memcpy()));
      nodes.push_back(nodes_owned.back().get());
    }
  }

  Engine eng;
  std::vector<std::unique_ptr<model::NodeHw>> nodes_owned;
  std::vector<model::NodeHw*> nodes;
};

// --- helpers -------------------------------------------------------------

struct Delivery {
  Time local_complete;
  Time remote_arrival;
  bool local_done = false;
  bool remote_done = false;
};

model::NetMsg probe_msg(Engine& eng, int src, int dst, std::uint64_t bytes,
                        Delivery& d, std::uint64_t addr = 0x100000) {
  model::NetMsg m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.src_addr = addr;
  m.dst_addr = addr + (32 << 20);
  m.local_complete = [&eng, &d] {
    d.local_complete = eng.now();
    d.local_done = true;
  };
  m.remote_arrival = [&eng, &d] {
    d.remote_arrival = eng.now();
    d.remote_done = true;
  };
  return m;
}

// --- InfiniBand ----------------------------------------------------------

TEST_F(FabricFixture, IbSmallMessageDeliversWithinMicroseconds) {
  build_nodes(2);
  ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
  Delivery d;
  fab.post(probe_msg(eng, 0, 1, 64, d));
  eng.run();
  ASSERT_TRUE(d.remote_done);
  ASSERT_TRUE(d.local_done);
  EXPECT_LT(d.remote_arrival, Time::us(8));
  EXPECT_GT(d.remote_arrival, Time::us(2));
  EXPECT_LE(d.local_complete, d.remote_arrival);
}

TEST_F(FabricFixture, IbLargeMessageNearsNicRate) {
  build_nodes(2);
  ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
  const std::uint64_t bytes = 8 << 20;
  Delivery d;
  fab.post(probe_msg(eng, 0, 1, bytes, d));
  eng.run();
  const double rate = static_cast<double>(bytes) / d.remote_arrival.to_seconds();
  EXPECT_GT(rate, 800e6);
  EXPECT_LT(rate, 890e6);  // below the HCA's 884 MB/s engine cap
}

TEST_F(FabricFixture, IbBidirectionalSharesHostBus) {
  build_nodes(2);
  ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
  const std::uint64_t bytes = 8 << 20;
  Delivery d01, d10;
  fab.post(probe_msg(eng, 0, 1, bytes, d01));
  fab.post(probe_msg(eng, 1, 0, bytes, d10));
  eng.run();
  const Time finish =
      d01.remote_arrival > d10.remote_arrival ? d01.remote_arrival
                                              : d10.remote_arrival;
  const double aggregate =
      static_cast<double>(2 * bytes) / finish.to_seconds();
  // Bus-bound: ~950e6 aggregate, far below 2x the uni-directional rate.
  EXPECT_GT(aggregate, 890e6);
  EXPECT_LT(aggregate, 1000e6);
}

TEST_F(FabricFixture, IbPciBusCutsBandwidth) {
  build_nodes(2, /*pcix=*/false);
  ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
  const std::uint64_t bytes = 8 << 20;
  Delivery d;
  fab.post(probe_msg(eng, 0, 1, bytes, d));
  eng.run();
  const double rate = static_cast<double>(bytes) / d.remote_arrival.to_seconds();
  EXPECT_GT(rate, 350e6);
  EXPECT_LT(rate, 410e6);  // PCI-bound ~378 MB (2^20)/s
}

TEST_F(FabricFixture, IbPerPairOrderingPreserved) {
  build_nodes(2);
  ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
  std::vector<int> arrivals;
  for (int i = 0; i < 10; ++i) {
    model::NetMsg m;
    m.src = 0;
    m.dst = 1;
    m.bytes = (i % 3 == 0) ? 64 : 128 << 10;  // mixed sizes
    m.remote_arrival = [&arrivals, i] { arrivals.push_back(i); };
    fab.post(std::move(m));
  }
  eng.run();
  ASSERT_EQ(arrivals.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(arrivals[i], i);
}

TEST_F(FabricFixture, IbMemoryGrowsWithNodes) {
  build_nodes(8);
  std::vector<model::NodeHw*> two(nodes.begin(), nodes.begin() + 2);
  Engine eng2;  // separate engines: fabrics spawn daemon loops at build
  std::vector<std::unique_ptr<model::NodeHw>> nodes2;
  std::vector<model::NodeHw*> two_ptrs;
  for (int i = 0; i < 2; ++i) {
    nodes2.push_back(std::make_unique<model::NodeHw>(
        eng2, model::pcix_133(), model::xeon_2003_memcpy()));
    two_ptrs.push_back(nodes2.back().get());
  }
  ib::IbFabric fab8(eng, nodes, ib::default_ib_config(8));
  ib::IbFabric fab2(eng2, two_ptrs, ib::default_ib_config(2));
  EXPECT_GT(fab8.memory_bytes(0), fab2.memory_bytes(0));
  // 6 extra RC connections at 5 MB each.
  EXPECT_EQ(fab8.memory_bytes(0) - fab2.memory_bytes(0), 6ull * (5 << 20));
}

TEST_F(FabricFixture, IbLoopbackSkipsSwitchAndHalvesBusRate) {
  build_nodes(1);
  ib::IbFabric fab(eng, nodes, ib::default_ib_config(1));
  const std::uint64_t bytes = 8 << 20;
  Delivery d;
  fab.post(probe_msg(eng, 0, 0, bytes, d));
  eng.run();
  const double rate = static_cast<double>(bytes) / d.remote_arrival.to_seconds();
  // Crosses the host bus twice: ~475e6 = 450 MB (2^20)/s, the paper's
  // intra-node large-message figure for MPI over InfiniBand.
  EXPECT_GT(rate, 430e6);
  EXPECT_LT(rate, 500e6);
}

// Uncontended-message oracle. One isolated 0->1 message on an idle
// two-node IB fabric over PCI-X crosses six stages, each a FIFO server fed
// by the one before, so its timing has a closed form: a max-plus
// recurrence over the packets, built here only from sim::transfer_time
// and the config's rates and fixed costs. Returns {eager local
// completion, remote arrival}.
std::pair<Time, Time> ib_uncontended_times(const ib::IbConfig& cfg,
                                           const model::BusConfig& bus,
                                           std::uint64_t bytes) {
  const model::NicConfig& nic = cfg.nic;
  const model::SwitchConfig& sw = cfg.switch_cfg;
  const double bus_rate = bus.effective_bytes_per_second;
  // MTU packets, but never more than 64 of them.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(nic.mtu, (bytes + 63) / 64);
  const std::uint64_t packets = bytes == 0 ? 1 : (bytes + chunk - 1) / chunk;
  // 1. Per-message setup on the sending NIC.
  Time fetched = nic.per_msg_setup;
  Time tx_free, port_free, rx_free, bus_free, sent, arrival;
  for (std::uint64_t p = 0; p < packets; ++p) {
    const std::uint64_t pkt =
        p + 1 < packets ? chunk : bytes - chunk * (packets - 1);
    // 2. Closed-loop fetch over the source bus: each chunk's DMA starts
    //    when the previous one (setup cost included) has completed.
    fetched = fetched + sim::transfer_time(pkt, bus_rate) + bus.per_dma_setup;
    // 3. NIC tx, then the wire.
    tx_free = std::max(tx_free, fetched) + sim::transfer_time(pkt, nic.tx_rate);
    sent = tx_free + nic.tx_wire_latency;
    // 4. Switch output port, then the crossbar traversal.
    port_free = std::max(port_free, sent) +
                sim::transfer_time(pkt, sw.port_bytes_per_second);
    Time t = port_free + sw.forward_latency;
    // 5. NIC rx. The per-message receive setup leads packet 0 in the same
    //    slot; a header-only message is pure occupancy there and so pays
    //    no rx_fixed.
    const Time lead = p == 0 ? nic.per_msg_rx_setup : Time::zero();
    rx_free =
        std::max(rx_free, t) + lead + sim::transfer_time(pkt, nic.rx_rate);
    t = rx_free + (bytes > 0 ? nic.rx_fixed : Time::zero());
    // 6. Destination bus DMA.
    bus_free = std::max(bus_free, t) + sim::transfer_time(pkt, bus_rate);
    arrival = bus_free + bus.per_dma_setup;
  }
  return {sent, arrival};
}

TEST(FabricOracle, IbUncontendedMessageMatchesClosedForm) {
  const ib::IbConfig cfg = ib::default_ib_config(2);
  const model::BusConfig bus = model::pcix_133();
  // The chunking edges (empty, one full MTU, one byte over, the 64-chunk
  // cap) plus seeded log-uniform sizes up to 1 MB.
  std::vector<std::uint64_t> sizes{0, 2048, 2049, 1 << 20};
  util::Rng rng(2003);
  for (int i = 0; i < 200; ++i) {
    sizes.push_back(rng.below(std::uint64_t{1} << rng.below(21)));
  }
  for (const std::uint64_t bytes : sizes) {
    Engine eng;
    model::NodeHw a(eng, bus, model::xeon_2003_memcpy());
    model::NodeHw b(eng, bus, model::xeon_2003_memcpy());
    ib::IbFabric fab(eng, {&a, &b}, cfg);
    Delivery d;
    fab.post(probe_msg(eng, 0, 1, bytes, d));
    eng.run();
    ASSERT_TRUE(d.local_done && d.remote_done) << bytes << " B";
    const auto [local, remote] = ib_uncontended_times(cfg, bus, bytes);
    EXPECT_EQ(d.local_complete.count_ps(), local.count_ps()) << bytes << " B";
    EXPECT_EQ(d.remote_arrival.count_ps(), remote.count_ps()) << bytes << " B";
  }
}

// --- Myrinet -------------------------------------------------------------

TEST_F(FabricFixture, GmSmallMessageLatency) {
  build_nodes(2);
  gm::GmFabric fab(eng, nodes, gm::default_gm_config(2));
  Delivery d;
  fab.post(probe_msg(eng, 0, 1, 64, d));
  eng.run();
  EXPECT_LT(d.remote_arrival, Time::us(8));
  EXPECT_GT(d.remote_arrival, Time::us(3));
}

TEST_F(FabricFixture, GmUnidirectionalIsLinkBound) {
  build_nodes(2);
  gm::GmFabric fab(eng, nodes, gm::default_gm_config(2));
  const std::uint64_t bytes = 8 << 20;
  Delivery d;
  fab.post(probe_msg(eng, 0, 1, bytes, d));
  eng.run();
  const double rate = static_cast<double>(bytes) / d.remote_arrival.to_seconds();
  EXPECT_GT(rate, 230e6);
  EXPECT_LT(rate, 250e6);
}

TEST_F(FabricFixture, GmBidirectionalLargeHitsSramWall) {
  build_nodes(2);
  gm::GmFabric fab(eng, nodes, gm::default_gm_config(2));
  const std::uint64_t big = 4 << 20;  // > 256 KB: staging contends
  Delivery d01, d10;
  fab.post(probe_msg(eng, 0, 1, big, d01));
  fab.post(probe_msg(eng, 1, 0, big, d10));
  eng.run();
  const Time finish =
      d01.remote_arrival > d10.remote_arrival ? d01.remote_arrival
                                              : d10.remote_arrival;
  const double aggregate = static_cast<double>(2 * big) / finish.to_seconds();
  // SRAM staging (~356e6) binds, well under 2 x 248e6 link capacity.
  EXPECT_LT(aggregate, 380e6);
  EXPECT_GT(aggregate, 300e6);
}

TEST_F(FabricFixture, GmBidirectionalSmallIsNotSramBound) {
  build_nodes(2);
  gm::GmFabric fab(eng, nodes, gm::default_gm_config(2));
  const std::uint64_t sz = 64 << 10;  // <= 256 KB: no staging contention
  // Back-to-back windows in both directions.
  int remaining = 32;
  Time finish;
  for (int i = 0; i < 16; ++i) {
    for (int dir = 0; dir < 2; ++dir) {
      model::NetMsg m;
      m.src = dir;
      m.dst = 1 - dir;
      m.bytes = sz;
      m.remote_arrival = [&eng = this->eng, &remaining, &finish] {
        if (--remaining == 0) finish = eng.now();
      };
      fab.post(std::move(m));
    }
  }
  eng.run();
  const double aggregate =
      static_cast<double>(32 * sz) / finish.to_seconds();
  EXPECT_GT(aggregate, 420e6);  // near 2 x link rate
}

// --- Quadrics ------------------------------------------------------------

TEST_F(FabricFixture, ElanSmallMessageIsFastest) {
  build_nodes(2, /*pcix=*/false);  // QM-400 sits on PCI 66
  elan::ElanFabric fab(eng, nodes, elan::default_elan_config(2));
  Delivery d;
  // Warm the MMU first so we measure the steady-state path.
  Delivery warm;
  fab.post(probe_msg(eng, 0, 1, 64, warm));
  eng.run();
  fab.post(probe_msg(eng, 0, 1, 64, d));
  eng.run();
  const Time net = d.remote_arrival - warm.remote_arrival;
  // NIC path ~1-2 us plus the previous message's ack retirement on the
  // shared Elan processor; host overhead is charged by the MPI layer.
  EXPECT_LT(net, Time::us(6));
  EXPECT_GT(net, Time::ns(800));
}

TEST_F(FabricFixture, ElanColdBufferPaysMmuStall) {
  build_nodes(2, false);
  elan::ElanFabric fab(eng, nodes, elan::default_elan_config(2));
  Delivery warm1, warm2, cold;
  fab.post(probe_msg(eng, 0, 1, 1024, warm1, 0x10000));
  eng.run();
  const Time t_cold_start = eng.now();
  fab.post(probe_msg(eng, 0, 1, 1024, cold, 0x900000));  // new pages
  eng.run();
  const Time cold_latency = cold.remote_arrival - t_cold_start;
  const Time t_warm_start = eng.now();
  fab.post(probe_msg(eng, 0, 1, 1024, warm2, 0x900000));  // reused
  eng.run();
  const Time warm_latency = warm2.remote_arrival - t_warm_start;
  // Both src and dst pages missed: two base penalties (~3 us each).
  EXPECT_GT(cold_latency - warm_latency, Time::us(5));
}

TEST_F(FabricFixture, ElanUnidirectionalBandwidth) {
  build_nodes(2, false);
  elan::ElanFabric fab(eng, nodes, elan::default_elan_config(2));
  const std::uint64_t bytes = 8 << 20;
  Delivery d;
  fab.post(probe_msg(eng, 0, 1, bytes, d));
  eng.run();
  const double rate = static_cast<double>(bytes) / d.remote_arrival.to_seconds();
  EXPECT_GT(rate, 295e6);
  EXPECT_LT(rate, 330e6);
}

TEST_F(FabricFixture, ElanQueueOverflowDegradesManyOutstanding) {
  // Post an all-at-once burst of small messages. Up to the DMA queue
  // depth (16) they pipeline at the per-message setup rate; beyond it,
  // each message pays the 2.5 us overflow penalty, so a 32-burst takes
  // far more than twice a 16-burst.
  auto run_burst = [](int burst) {
    Engine e;
    std::vector<std::unique_ptr<model::NodeHw>> ns;
    std::vector<model::NodeHw*> ps;
    for (int i = 0; i < 2; ++i) {
      ns.push_back(std::make_unique<model::NodeHw>(e, model::pci_66(),
                                                   model::xeon_2003_memcpy()));
      ps.push_back(ns.back().get());
    }
    elan::ElanFabric fab(e, ps, elan::default_elan_config(2));
    int remaining = burst;
    Time finish;
    for (int i = 0; i < burst; ++i) {
      model::NetMsg m;
      m.src = 0;
      m.dst = 1;
      m.bytes = 64;
      m.src_addr = 0x1000;  // same page: MMU warms immediately
      m.dst_addr = 0x2000;
      m.remote_arrival = [&remaining, &finish, &e] {
        if (--remaining == 0) finish = e.now();
      };
      fab.post(std::move(m));
    }
    e.run();
    return finish;
  };
  const Time burst32 = run_burst(32);
  const Time burst16 = run_burst(16);
  EXPECT_GT(burst32.to_seconds(), 2.0 * burst16.to_seconds());
}

TEST_F(FabricFixture, ElanHwBroadcastReachesAllNodes) {
  build_nodes(8, false);
  elan::ElanFabric fab(eng, nodes, elan::default_elan_config(8));
  bool done = false;
  Time when;
  fab.post_hw_broadcast(0, 256, 0x4000, [&] {
    done = true;
    when = eng.now();
  });
  eng.run();
  ASSERT_TRUE(done);
  EXPECT_LT(when, Time::us(12));
}

// --- Shared memory -------------------------------------------------------

TEST_F(FabricFixture, ShmDeliversAfterCopyAndVisibility) {
  shm::ShmConfig cfg{Time::ns(300), Time::ns(250), Time::ns(150),
                     model::xeon_2003_memcpy()};
  shm::ShmDomain dom(eng, cfg);
  struct Copy {
    Engine* e;
    shm::ShmDomain* dom;
    Time arrived, sender_resumed;
    void copied() {
      sender_resumed = e->now();
      dom->publish(1024, [this] { arrived = e->now(); });
    }
  } copy{&eng, &dom, {}, {}};
  dom.send_copy(1024, sim::Cont::member<&Copy::copied>(&copy));
  eng.run();
  const Time arrived = copy.arrived;
  const Time sender_resumed = copy.sender_resumed;
  // Sender resumes before the data is visible at the receiver.
  EXPECT_LT(sender_resumed, arrived);
  EXPECT_GT(arrived, Time::ns(300));
  EXPECT_LT(arrived, Time::us(3));
  EXPECT_EQ(dom.messages(), 1u);
  EXPECT_EQ(dom.bytes_moved(), 1024u);
}

TEST_F(FabricFixture, ShmRecvCostScalesWithSize) {
  shm::ShmConfig cfg{Time::ns(300), Time::ns(250), Time::ns(150),
                     model::xeon_2003_memcpy()};
  shm::ShmDomain dom(eng, cfg);
  EXPECT_LT(dom.recv_cost(64), dom.recv_cost(1 << 20));
}

}  // namespace
