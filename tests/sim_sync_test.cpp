#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace {

using namespace mns::sim;

TEST(Trigger, ReleasesAllWaiters) {
  Engine eng;
  Trigger trig(eng);
  std::vector<int> done;
  auto waiter = [](Trigger& t, std::vector<int>& done, int id) -> Task<> {
    co_await t.wait();
    done.push_back(id);
  };
  eng.spawn(waiter(trig, done, 1));
  eng.spawn(waiter(trig, done, 2));
  eng.spawn([](Engine& e, Trigger& t) -> Task<> {
    co_await e.delay(Time::us(5));
    t.fire();
  }(eng, trig));
  eng.run();
  EXPECT_EQ(done, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), Time::us(5));
}

TEST(Trigger, AwaitAfterFireIsImmediate) {
  Engine eng;
  Trigger trig(eng);
  trig.fire();
  trig.fire();  // idempotent
  Time when;
  eng.spawn([](Engine& e, Trigger& t, Time& when) -> Task<> {
    co_await e.delay(Time::us(3));
    co_await t.wait();
    when = e.now();
  }(eng, trig, when));
  eng.run();
  EXPECT_EQ(when, Time::us(3));
}

TEST(Trigger, ResetReuses) {
  Engine eng;
  Trigger trig(eng);
  trig.fire();
  trig.reset();
  EXPECT_FALSE(trig.fired());
}

TEST(Trigger, NeverFiredDeadlocks) {
  Engine eng;
  Trigger trig(eng);
  eng.spawn([](Trigger& t) -> Task<> { co_await t.wait(); }(trig));
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Mailbox, FifoDelivery) {
  Engine eng;
  Mailbox<int> mb(eng);
  std::vector<int> got;
  eng.spawn([](Mailbox<int>& mb, std::vector<int>& got) -> Task<> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await mb.receive());
  }(mb, got));
  eng.spawn([](Engine& e, Mailbox<int>& mb) -> Task<> {
    mb.send(10);
    co_await e.delay(Time::us(1));
    mb.send(20);
    mb.send(30);
  }(eng, mb));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, DirectHandoffNotStolen) {
  // Receiver A waits first; a message sent to A must not be stolen by a
  // receiver B that polls between the send and A's resumption.
  Engine eng;
  Mailbox<std::string> mb(eng);
  std::string got_a, got_b;
  eng.spawn([](Mailbox<std::string>& mb, std::string& out) -> Task<> {
    out = co_await mb.receive();
  }(mb, got_a));
  eng.spawn([](Engine& e, Mailbox<std::string>& mb, std::string& out) -> Task<> {
    co_await e.delay(Time::us(1));
    mb.send("first");   // handed to A, resumption queued
    mb.send("second");  // queued
    out = co_await mb.receive();  // should see "second"
  }(eng, mb, got_b));
  eng.run();
  EXPECT_EQ(got_a, "first");
  EXPECT_EQ(got_b, "second");
}

TEST(Mailbox, ManyMessagesStress) {
  Engine eng;
  Mailbox<int> mb(eng);
  long sum = 0;
  const int n = 10000;
  eng.spawn([](Mailbox<int>& mb, long& sum, int n) -> Task<> {
    for (int i = 0; i < n; ++i) sum += co_await mb.receive();
  }(mb, sum, n));
  eng.spawn([](Engine& e, Mailbox<int>& mb, int n) -> Task<> {
    for (int i = 1; i <= n; ++i) {
      mb.send(i);
      if (i % 97 == 0) co_await e.delay(Time::ns(10));
    }
  }(eng, mb, n));
  eng.run();
  EXPECT_EQ(sum, static_cast<long>(n) * (n + 1) / 2);
}

}  // namespace
