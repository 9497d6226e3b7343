#include <gtest/gtest.h>

#include <vector>

#include "leaf_wait.hpp"
#include "model/bus.hpp"
#include "model/memcpy_model.hpp"
#include "model/nic_tlb.hpp"
#include "model/pipe.hpp"
#include "model/regcache.hpp"
#include "model/switch.hpp"
#include "sim/engine.hpp"

namespace {

using namespace mns;
using namespace mns::model;
using sim::Engine;
using sim::Task;
using sim::Time;

TEST(Pipe, SerializesAtConfiguredRate) {
  Engine eng;
  Pipe pipe(eng, 1e9);  // 1 GB/s => 1000 bytes = 1 us
  Time done;
  eng.spawn([](Engine& e, Pipe& p, Time& done) -> Task<> {
    co_await p.transfer(1000);
    done = e.now();
  }(eng, pipe, done));
  eng.run();
  EXPECT_EQ(done, Time::us(1));
  EXPECT_EQ(pipe.bytes_moved(), 1000u);
  EXPECT_EQ(pipe.transfers(), 1u);
}

TEST(Pipe, FixedCostAddsLatencyNotOccupancy) {
  Engine eng;
  Pipe pipe(eng, 1e9, Time::ns(500));
  std::vector<Time> done(2);
  auto xfer = [](Engine& e, Pipe& p, Time& out) -> Task<> {
    co_await p.transfer(1000);
    out = e.now();
  };
  eng.spawn(xfer(eng, pipe, done[0]));
  eng.spawn(xfer(eng, pipe, done[1]));
  eng.run();
  // First: 1us serialize + 0.5us fixed. Second queues behind the first's
  // serialization only (pipelined propagation): 2us + 0.5us.
  EXPECT_EQ(done[0], Time::ns(1500));
  EXPECT_EQ(done[1], Time::ns(2500));
}

TEST(Pipe, FifoQueueingUnderContention) {
  Engine eng;
  Pipe pipe(eng, 1e9);
  std::vector<int> order;
  auto xfer = [](Pipe& p, std::vector<int>& order, int id) -> Task<> {
    co_await p.transfer(100);
    order.push_back(id);
  };
  for (int i = 0; i < 5; ++i) eng.spawn(xfer(pipe, order, i));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(eng.now(), Time::ns(500));
  EXPECT_EQ(pipe.busy_time(), Time::ns(500));
}

// Mixed sizes on one pipe: the serialization memo must track every size
// change, so each slot equals sim::transfer_time of its own size. At
// 3e8 B/s the times round to the picosecond (2048 B is 6826666.67 ps,
// 37 B is 123333.33 ps).
TEST(Pipe, MixedSizesMatchTransferTimeEachSlot) {
  Engine eng;
  const double rate = 3e8;
  Pipe pipe(eng, rate);
  const std::uint64_t sizes[] = {2048, 37, 2048, 0, 2048, 2048, 37};
  Time end = Time::zero();
  Time sum = Time::zero();
  for (const std::uint64_t b : sizes) {
    const Time slot = sim::transfer_time(b, rate);
    end = end + slot;
    sum = sum + slot;
    EXPECT_EQ(pipe.reserve(b), end) << b << " bytes";
  }
  EXPECT_EQ(sim::transfer_time(2048, rate), Time::ps(6826667));
  EXPECT_EQ(sim::transfer_time(37, rate), Time::ps(123333));
  EXPECT_EQ(pipe.busy_time(), sum);
  EXPECT_EQ(pipe.bytes_moved(), 4 * 2048u + 2 * 37);
}

TEST(Pipe, ZeroByteTransferPaysFixedCostOnly) {
  Engine eng;
  Pipe pipe(eng, 1e9, Time::ns(100));
  Time done;
  eng.spawn([](Engine& e, Pipe& p, Time& out) -> Task<> {
    co_await p.transfer(0);
    out = e.now();
  }(eng, pipe, done));
  eng.run();
  EXPECT_EQ(done, Time::ns(100));
}

TEST(HostBus, SharedBetweenDirections) {
  // Two simultaneous 1 MB DMAs (tx+rx) through one PCI-X bus take twice
  // the time of one: the bus is half-duplex.
  Engine eng;
  HostBus bus(eng, BusConfig{"test", 1e9, Time::zero()});
  Time done1, done2;
  auto dma = [](Engine& e, HostBus& b, Time& out) -> Task<> {
    co_await b.dma(1'000'000);
    out = e.now();
  };
  eng.spawn(dma(eng, bus, done1));
  eng.spawn(dma(eng, bus, done2));
  eng.run();
  EXPECT_EQ(done1, Time::ms(1));
  EXPECT_EQ(done2, Time::ms(2));
}

// Each leaf wait reserves its slot at the call and resumes the caller at
// the slot's end. The pipe is already busy until 1 us when the caller
// asks at 0.5 us: 1 GB/s, so 500 bytes take 0.5 us, plus a 100 ns fixed
// cost on data transfers.
TEST(LeafWait, PipeTransferResumesCallerWithoutAFrame) {
  Engine eng;
  Pipe pipe(eng, 1e9, Time::ns(100));
  pipe.reserve(1000);
  const auto w = mns::test_support::run_leaf_wait(
      eng, Time::ns(500), [&pipe] { return pipe.transfer(500); });
  EXPECT_EQ(w.resumed, Time::ns(1600));
  EXPECT_EQ(w.frames, 0u);
}

TEST(LeafWait, PipeOccupyResumesCallerWithoutAFrame) {
  Engine eng;
  Pipe pipe(eng, 1e9, Time::ns(100));
  pipe.reserve(1000);
  const auto w = mns::test_support::run_leaf_wait(
      eng, Time::ns(500), [&pipe] { return pipe.occupy(Time::ns(300)); });
  EXPECT_EQ(w.resumed, Time::ns(1300));  // pure occupancy: no fixed cost
  EXPECT_EQ(w.frames, 0u);
}

TEST(LeafWait, PipeTransferAfterResumesCallerWithoutAFrame) {
  Engine eng;
  Pipe pipe(eng, 1e9, Time::ns(100));
  pipe.reserve(1000);
  const auto w = mns::test_support::run_leaf_wait(eng, Time::ns(500), [&pipe] {
    return pipe.transfer_after(Time::ns(300), 500);
  });
  EXPECT_EQ(w.resumed, Time::ns(1900));
  EXPECT_EQ(w.frames, 0u);
}

TEST(LeafWait, HostBusDmaResumesCallerWithoutAFrame) {
  Engine eng;
  HostBus bus(eng, BusConfig{"test", 1e9, Time::ns(100)});
  bus.pipe().reserve(1000);
  const auto w = mns::test_support::run_leaf_wait(
      eng, Time::ns(500), [&bus] { return bus.dma(500); });
  EXPECT_EQ(w.resumed, Time::ns(1600));
  EXPECT_EQ(w.frames, 0u);
}

TEST(HostBus, PcixFasterThanPci) {
  const auto pcix = pcix_133();
  const auto pci = pci_66();
  EXPECT_GT(pcix.effective_bytes_per_second, 2 * pci.effective_bytes_per_second * 0.9);
  EXPECT_LT(pcix.effective_bytes_per_second, 1064e6);  // below theoretical
  EXPECT_LT(pci.effective_bytes_per_second, 532e6);
}

TEST(CrossbarSwitch, IndependentOutputPorts) {
  Engine eng;
  CrossbarSwitch sw(eng, SwitchConfig{8, 1e9, Time::ns(100)});
  Time done1, done2, done3;
  auto fwd = [](Engine& e, CrossbarSwitch& s, std::size_t dst,
                Time& out) -> Task<> {
    co_await s.port(dst).transfer(1000);
    out = e.now();
  };
  eng.spawn(fwd(eng, sw, 0, done1));
  eng.spawn(fwd(eng, sw, 1, done2));  // different port: no contention
  eng.spawn(fwd(eng, sw, 0, done3));  // same port: queues
  eng.run();
  EXPECT_EQ(done1, Time::ns(1100));
  EXPECT_EQ(done2, Time::ns(1100));
  EXPECT_EQ(done3, Time::ns(2100));
}

TEST(CrossbarSwitch, BadPortThrows) {
  Engine eng;
  CrossbarSwitch sw(eng, SwitchConfig{4, 1e9, Time::zero()});
  EXPECT_THROW(sw.port(4), std::out_of_range);
}

TEST(MemcpyModel, SmallCopiesAtCacheRate) {
  const MemcpyModel m(xeon_2003_memcpy());
  const auto cfg = m.config();
  const Time t = m.copy_time(1024);
  const Time expect = cfg.per_call + sim::transfer_time(1024, cfg.cached_rate);
  EXPECT_EQ(t, expect);
}

TEST(MemcpyModel, LargeCopiesDegrade) {
  const MemcpyModel m(xeon_2003_memcpy());
  const std::uint64_t large = 4 << 20;
  const double rate_large =
      static_cast<double>(large) / m.copy_time(large).to_seconds();
  const double rate_small =
      static_cast<double>(16384) / m.copy_time(16384).to_seconds();
  EXPECT_LT(rate_large, rate_small);
  EXPECT_LT(rate_large, m.config().dram_rate * 1.1);
}

TEST(RegistrationCache, HitIsFree) {
  RegistrationCache rc({Time::us(10), Time::us(1), Time::us(5), 4096,
                        64 << 20});
  const Time miss = rc.acquire(0x1000, 8192);
  EXPECT_EQ(miss, Time::us(10) + Time::us(1) * 2);
  const Time hit = rc.acquire(0x1000, 8192);
  EXPECT_EQ(hit, Time::zero());
  EXPECT_EQ(rc.hits(), 1u);
  EXPECT_EQ(rc.misses(), 1u);
  EXPECT_EQ(rc.pinned_bytes(), 8192u);
}

TEST(RegistrationCache, SmallerRequestWithinRegionHits) {
  RegistrationCache rc({Time::us(10), Time::us(1), Time::us(5), 4096,
                        64 << 20});
  rc.acquire(0x1000, 16384);
  EXPECT_EQ(rc.acquire(0x1000, 4096), Time::zero());
}

TEST(RegistrationCache, GrowingRegionReRegisters) {
  RegistrationCache rc({Time::us(10), Time::us(1), Time::us(5), 4096,
                        64 << 20});
  rc.acquire(0x1000, 4096);
  const Time cost = rc.acquire(0x1000, 8192);
  EXPECT_EQ(cost, Time::us(5) + Time::us(10) + Time::us(1) * 2);
  EXPECT_EQ(rc.pinned_bytes(), 8192u);
}

TEST(RegistrationCache, LruEviction) {
  // Capacity of 2 pages: registering a third evicts the least recent.
  RegistrationCache rc({Time::us(10), Time::us(1), Time::us(5), 4096, 8192});
  rc.acquire(0xA000, 4096);
  rc.acquire(0xB000, 4096);
  rc.acquire(0xA000, 4096);            // refresh A
  rc.acquire(0xC000, 4096);            // evicts B
  EXPECT_EQ(rc.evictions(), 1u);
  EXPECT_EQ(rc.acquire(0xA000, 4096), Time::zero());   // A still cached
  EXPECT_NE(rc.acquire(0xB000, 4096), Time::zero());   // B gone
}

TEST(RegistrationCache, ClearDropsEverything) {
  RegistrationCache rc({Time::us(10), Time::us(1), Time::us(5), 4096,
                        64 << 20});
  rc.acquire(0x1000, 4096);
  rc.clear();
  EXPECT_EQ(rc.pinned_bytes(), 0u);
  EXPECT_NE(rc.acquire(0x1000, 4096), Time::zero());
}

TEST(NicTlb, MissThenHit) {
  NicTlb tlb({4096, 16, Time::ns(500), Time::us(1)});
  const Time first = tlb.access(0x1000, 8192);  // 2 pages
  EXPECT_EQ(first, Time::us(1) + Time::ns(500) * 2);
  const Time second = tlb.access(0x1000, 8192);
  EXPECT_EQ(second, Time::zero());
  EXPECT_EQ(tlb.hits(), 2u);
  EXPECT_EQ(tlb.misses(), 2u);
}

TEST(NicTlb, CapacityEviction) {
  NicTlb tlb({4096, 2, Time::ns(500), Time::zero()});
  tlb.access(0x0000, 4096);
  tlb.access(0x1000, 4096);
  tlb.access(0x2000, 4096);                       // evicts page 0
  EXPECT_NE(tlb.access(0x0000, 4096), Time::zero());
}

TEST(NicTlb, PageSpanRounding) {
  NicTlb tlb({4096, 64, Time::ns(100), Time::zero()});
  // 1 byte crossing into a page counts that page.
  const Time t = tlb.access(4095, 2);  // touches pages 0 and 1
  EXPECT_EQ(t, Time::ns(200));
}

}  // namespace
