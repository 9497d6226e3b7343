// Randomized property tests over the simulation kernel and hardware
// models: invariants that must hold for ANY schedule, checked over many
// seeded scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/pipe.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace {

using namespace mns;
using sim::Engine;
using sim::Task;
using sim::Time;

class SeededProperty : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST_P(SeededProperty, EventsNeverRunOutOfOrder) {
  // Random schedule times, including duplicates and re-entrant
  // scheduling: observed timestamps must be non-decreasing and complete.
  Engine eng;
  util::Rng rng(GetParam());
  std::vector<std::int64_t> observed;
  int scheduled = 0;
  std::function<void(int)> chain = [&](int depth) {
    observed.push_back(eng.now().count_ps());
    if (depth < 3 && rng.chance(0.4)) {
      ++scheduled;
      eng.after(Time::ps(static_cast<std::int64_t>(rng.below(1000))),
                [&, depth] { chain(depth + 1); });
    }
  };
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    ++scheduled;
    eng.after(Time::ps(static_cast<std::int64_t>(rng.below(100000))),
              [&] { chain(0); });
  }
  eng.run();
  EXPECT_EQ(static_cast<int>(eng.events_processed()), scheduled);
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
}

TEST_P(SeededProperty, PipeConservesBytesAndNeverOverlaps) {
  // Any mix of transfer sizes through one pipe: total busy time must
  // equal total bytes / rate (no lost or double-counted occupancy), and
  // completions must respect FIFO order.
  Engine eng;
  const double rate = 2e9;
  model::Pipe pipe(eng, rate);
  util::Rng rng(GetParam() * 7919);
  std::uint64_t total = 0;
  std::vector<int> done_order;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bytes = 1 + rng.below(1 << 16);
    total += bytes;
    eng.spawn([](Engine& e, model::Pipe& p, std::uint64_t b,
                 std::vector<int>& order, int id,
                 std::uint64_t delay_ns) -> Task<> {
      co_await e.delay(Time::ns(static_cast<std::int64_t>(delay_ns)));
      co_await p.transfer(b);
      order.push_back(id);
    }(eng, pipe, bytes, done_order, i, rng.below(2000)));
  }
  eng.run();
  EXPECT_EQ(pipe.bytes_moved(), total);
  EXPECT_EQ(pipe.transfers(), static_cast<std::uint64_t>(n));
  // Busy time == serialization of every byte (allow 1 ps rounding each).
  const double expect_s = static_cast<double>(total) / rate;
  EXPECT_NEAR(pipe.busy_time().to_seconds(), expect_s, n * 1e-12);
  EXPECT_EQ(done_order.size(), static_cast<std::size_t>(n));
}

TEST_P(SeededProperty, MailboxDeliversEverythingExactlyOnce) {
  Engine eng;
  sim::Mailbox<int> mb(eng);
  util::Rng rng(GetParam() + 17);
  const int n = 300;
  std::vector<int> got;
  // Two competing receivers.
  for (int r = 0; r < 2; ++r) {
    eng.spawn([](sim::Mailbox<int>& mb, std::vector<int>& got,
                 int quota) -> Task<> {
      for (int i = 0; i < quota; ++i) got.push_back(co_await mb.receive());
    }(mb, got, n / 2));
  }
  eng.spawn([](Engine& e, sim::Mailbox<int>& mb, util::Rng rng,
               int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      mb.send(i);
      if (rng.chance(0.3)) {
        co_await e.delay(Time::ns(static_cast<std::int64_t>(rng.below(50))));
      }
    }
  }(eng, mb, rng, n));
  eng.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  std::sort(got.begin(), got.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

}  // namespace
