// Conservative PDES core (src/sim/pdes): partition-count invariance of
// observable results, the cross-partition cancellation (RTO) pattern,
// termination, contract validation, and the executor's abort hygiene.
//
// The load-bearing property throughout: the merged emission stream of a
// run is BIT-IDENTICAL for every partition count, including the
// inline-sequential partitions == 1 — the in-run analogue of the sweep
// runner's --jobs invariance.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/pdes/fabric_exec.hpp"
#include "sim/pdes/pdes.hpp"

namespace {

using mns::sim::DeadlockError;
using mns::sim::Engine;
using mns::sim::EventFn;
using mns::sim::EventId;
using mns::sim::EventLimitError;
using mns::sim::Time;
namespace pdes = mns::sim::pdes;

constexpr std::int64_t kLaPs = 1000;  // 1 ns lookahead floor

std::uint64_t mix(std::uint64_t x) {
  // SplitMix64 finalizer: deterministic, seedable, well-scrambled.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Seeded random traffic: every node fires `rounds` kickoffs, each message
// hop rehashes an accumulator, emits the result, and forwards with a TTL.
// Quantized delays force same-timestamp collisions from many sources, so
// the deterministic (when, src, send-index) delivery order is actually
// load-bearing, not vacuously unique.

struct TrafficParams {
  int nodes = 16;
  int rounds = 8;
  int ttl = 12;
  std::uint64_t seed = 1;
};

pdes::Result run_traffic(const TrafficParams& pp, int partitions) {
  const auto topo =
      pdes::Topology::blocks(pp.nodes, partitions, Time::ps(kLaPs));
  // Node state is indexed by node id and touched only by the owning
  // partition — the affinity contract the PDES layer is built around.
  auto acc = std::make_shared<std::vector<std::uint64_t>>(
      static_cast<std::size_t>(pp.nodes), 0);
  const auto build = [pp, acc](pdes::Context& ctx) {
    pdes::Context* cp = &ctx;
    for (int n : ctx.nodes()) {
      ctx.on_message(n, [pp, acc](pdes::Context& c, int node,
                                  std::uint64_t w) {
        const std::uint64_t ttl = w >> 56;
        auto& a = (*acc)[static_cast<std::size_t>(node)];
        const std::uint64_t v = mix(a ^ (w & 0x00ffffffffffffffull));
        a = v;
        c.emit(node, v);
        if (ttl > 0) {
          const int dst = static_cast<int>(v % static_cast<std::uint64_t>(
                                                   pp.nodes));
          // Quantized delay: many sources land on identical timestamps.
          const std::int64_t d =
              kLaPs * static_cast<std::int64_t>(1 + ((v >> 8) % 3));
          c.send(node, dst, c.now() + Time::ps(d),
                 ((ttl - 1) << 56) | (v & 0x00ffffffffffffffull));
        }
      });
      for (int r = 0; r < pp.rounds; ++r) {
        const std::uint64_t h =
            mix(pp.seed ^ (static_cast<std::uint64_t>(n) << 32) ^
                static_cast<std::uint64_t>(r));
        const std::int64_t t0 =
            kLaPs * static_cast<std::int64_t>(1 + (h % 5));
        const std::uint64_t w0 =
            (static_cast<std::uint64_t>(pp.ttl) << 56) |
            (h & 0x00ffffffffffffffull);
        ctx.engine().at(Time::ps(t0), EventFn::make([cp, n, w0, t0] {
                          const int dst =
                              static_cast<int>(w0 % 1000003ull) % 16;
                          (void)t0;
                          cp->send(n, dst % 16, cp->now() + Time::ps(kLaPs),
                                   w0);
                        }));
      }
    }
  };
  return pdes::run(topo, build);
}

TEST(Pdes, TrafficIsPartitionCountInvariant) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TrafficParams pp;
    pp.seed = seed;
    const pdes::Result base = run_traffic(pp, 1);
    ASSERT_GT(base.emissions.size(), 200u) << "seed " << seed;
    ASSERT_GT(base.end_ps, 0) << "seed " << seed;
    for (int k : {2, 3, 4, 8, 16}) {
      const pdes::Result r = run_traffic(pp, k);
      EXPECT_EQ(r.digest(), base.digest())
          << "partitions=" << k << " seed=" << seed;
      EXPECT_EQ(r.emissions.size(), base.emissions.size());
      EXPECT_EQ(r.end_ps, base.end_ps);
      EXPECT_GT(r.messages, 0u);
    }
  }
}

TEST(Pdes, EmissionStreamsAreExactlyEqualNotJustDigestEqual) {
  TrafficParams pp;
  pp.seed = 42;
  const pdes::Result a = run_traffic(pp, 1);
  const pdes::Result b = run_traffic(pp, 4);
  ASSERT_EQ(a.emissions.size(), b.emissions.size());
  for (std::size_t i = 0; i < a.emissions.size(); ++i) {
    ASSERT_EQ(a.emissions[i], b.emissions[i]) << "emission " << i;
  }
}

TEST(Pdes, MessageCountsAndEventTotalsArePartitionInvariant) {
  TrafficParams pp;
  pp.seed = 7;
  const pdes::Result a = run_traffic(pp, 1);
  const pdes::Result b = run_traffic(pp, 8);
  // Message traffic and workload event totals are defined by the
  // workload, not the layout: Result::events excludes the injected
  // delivery-batch carrier events (whose grouping — delivery_batches —
  // is the one layout-dependent counter).
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.delivery_batches, 0u);
  EXPECT_LE(a.delivery_batches, a.messages);
  EXPECT_LE(b.delivery_batches, b.messages);
}

// ---------------------------------------------------------------------------
// The RTO pattern (satellite: cancellation across partitions): requester
// nodes arm a cancellable retransmit timer per request; the responder —
// in another partition for K > 1 — acks, and the ack handler cancels the
// timer. Exactly one of {ack-cancelled, timeout} must resolve every
// request, for every partition count, with timers cancelled from batched
// delivery handlers (quantized ack times force multi-message batches).

struct RtoState {
  std::map<int, EventId> timers;  // request id -> armed timer
  int resolved = 0;
};

pdes::Result run_rto(int pairs, int requests, std::uint64_t seed,
                     int partitions) {
  const int nodes = 2 * pairs;
  const auto topo =
      pdes::Topology::blocks(nodes, partitions, Time::ps(kLaPs));
  auto st = std::make_shared<std::vector<RtoState>>(
      static_cast<std::size_t>(nodes));
  const std::int64_t rto_ps = 40 * kLaPs;
  const auto build = [=](pdes::Context& ctx) {
    pdes::Context* cp = &ctx;
    for (int n : ctx.nodes()) {
      if (n % 2 == 1) {
        // Responder: ack request id back to the requester after a
        // seed-dependent think time; some acks deliberately miss the RTO.
        ctx.on_message(n, [cp, seed, rto_ps](pdes::Context& c, int node,
                                             std::uint64_t w) {
          const std::uint64_t req = w;
          const std::uint64_t h =
              mix(seed ^ (static_cast<std::uint64_t>(node) << 40) ^ req);
          const std::int64_t think =
              (h % 4 == 0) ? rto_ps + kLaPs * static_cast<std::int64_t>(
                                                  1 + (h >> 8) % 4)
                           : kLaPs * static_cast<std::int64_t>(
                                         1 + (h >> 8) % 8);
          c.send(node, node - 1, c.now() + Time::ps(think), req);
        });
        continue;
      }
      // Requester: fire `requests` requests, arm a timer per request.
      ctx.on_message(n, [cp, st](pdes::Context& c, int node,
                                 std::uint64_t req) {
        RtoState& s = (*st)[static_cast<std::size_t>(node)];
        const auto it = s.timers.find(static_cast<int>(req));
        // Ack after the timer already fired: request resolved as a
        // timeout, the late ack must be a no-op.
        if (it == s.timers.end()) return;
        // The exactly-once pivot: cancel() returns true iff the timer
        // had not fired — ack-after-timeout must NOT double-resolve.
        if (c.engine().cancel(it->second)) {
          s.timers.erase(it);
          ++s.resolved;
          c.emit(node, 0xACC0000000000000ull | req);
        }
      });
      for (int r = 0; r < requests; ++r) {
        const std::uint64_t h =
            mix(seed ^ (static_cast<std::uint64_t>(n) << 20) ^
                static_cast<std::uint64_t>(r));
        // Quantized launch instants: several requesters share timestamps,
        // so acks return in multi-message delivery batches.
        const std::int64_t t0 =
            kLaPs * static_cast<std::int64_t>(2 + (h % 3) * 2);
        ctx.engine().at(
            Time::ps(t0), EventFn::make([cp, st, n, r, rto_ps] {
              RtoState& s = (*st)[static_cast<std::size_t>(n)];
              cp->send(n, n + 1, cp->now() + Time::ps(kLaPs),
                       static_cast<std::uint64_t>(r));
              const EventId id = cp->engine().at_cancellable(
                  cp->now() + Time::ps(rto_ps),
                  EventFn::make([cp, st, n, r] {
                    RtoState& s2 = (*st)[static_cast<std::size_t>(n)];
                    s2.timers.erase(r);
                    ++s2.resolved;
                    cp->emit(n, 0x7100000000000000ull |
                                    static_cast<std::uint64_t>(r));
                  }));
              s.timers[r] = id;
            }));
      }
    }
  };
  return pdes::run(topo, build);
}

TEST(PdesRto, CrossPartitionCancelIsExactlyOncePerRequest) {
  const int pairs = 8, requests = 16;
  for (std::uint64_t seed : {3ull, 11ull, 27ull}) {
    const pdes::Result base = run_rto(pairs, requests, seed, 1);
    // Every request resolves exactly once: one emission per request,
    // either ACK-cancelled or timer-fired.
    ASSERT_EQ(base.emissions.size(),
              static_cast<std::size_t>(pairs * requests));
    std::size_t timeouts = 0;
    for (const auto& e : base.emissions) {
      if ((e.word >> 56) == 0x71) ++timeouts;
    }
    // The seed-dependent think time must exercise BOTH arms.
    EXPECT_GT(timeouts, 0u) << "seed " << seed;
    EXPECT_LT(timeouts, static_cast<std::size_t>(pairs * requests));
    for (int k : {2, 4, 8}) {
      const pdes::Result r = run_rto(pairs, requests, seed, k);
      EXPECT_EQ(r.digest(), base.digest())
          << "partitions=" << k << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Termination, idleness, and sparse horizons.

TEST(Pdes, IdlePartitionsTerminate) {
  // Only nodes 0 and 1 talk; partitions owning nodes 2..7 go idle
  // immediately and must neither spin forever nor break the digests.
  const auto topo = pdes::Topology::blocks(8, 8, Time::ps(kLaPs));
  const auto build = [](pdes::Context& ctx) {
    pdes::Context* cp = &ctx;
    for (int n : ctx.nodes()) {
      ctx.on_message(n, [](pdes::Context& c, int node, std::uint64_t w) {
        c.emit(node, w);
        if (w > 0) c.send(node, 1 - node, c.now() + Time::ps(kLaPs), w - 1);
      });
      if (n == 0) {
        ctx.engine().at(Time::ps(kLaPs), EventFn::make([cp] {
                          cp->send(0, 1, cp->now() + Time::ps(kLaPs), 10);
                        }));
      }
    }
  };
  const pdes::Result r = pdes::run(topo, build);
  EXPECT_EQ(r.emissions.size(), 11u);  // 10, 9, ..., 0 ping-pong
  EXPECT_EQ(r.messages, 11u);
}

TEST(Pdes, SparseHorizonsDoNotCrawl) {
  // Events 1 ms apart with 1 ns lookahead: a pairwise-relaxation LBTS
  // would need ~10^6 exchanges per gap; the known-horizon scheme jumps
  // straight to the next event. The test passing quickly IS the check.
  const auto topo = pdes::Topology::blocks(2, 2, Time::ps(kLaPs));
  const auto build = [](pdes::Context& ctx) {
    pdes::Context* cp = &ctx;
    for (int n : ctx.nodes()) {
      ctx.on_message(n, [](pdes::Context& c, int node, std::uint64_t w) {
        c.emit(node, w);
      });
      if (n == 0) {
        for (int i = 1; i <= 50; ++i) {
          ctx.engine().at(Time::ms(i), EventFn::make([cp, i] {
                            cp->send(0, 1, cp->now() + Time::ps(kLaPs),
                                     static_cast<std::uint64_t>(i));
                          }));
        }
      }
    }
  };
  const pdes::Result r = pdes::run(topo, build);
  EXPECT_EQ(r.emissions.size(), 50u);
  EXPECT_EQ(r.end_ps, Time::ms(50).count_ps() + kLaPs);
}

// ---------------------------------------------------------------------------
// Contract validation and failure propagation.

TEST(PdesContract, TopologyValidationRejectsStructuralErrors) {
  EXPECT_THROW(pdes::Topology::blocks(0, 1, Time::ps(1)),
               std::invalid_argument);
  EXPECT_THROW(pdes::Topology::blocks(4, 5, Time::ps(1)),
               std::invalid_argument);
  EXPECT_THROW(pdes::Topology::blocks(4, 0, Time::ps(1)),
               std::invalid_argument);
  EXPECT_THROW(pdes::Topology::blocks(4, 2, Time::zero()),
               std::invalid_argument);
  pdes::Topology t = pdes::Topology::blocks(4, 2, Time::ps(1));
  t.part_of = {0, 0, 0, 0};  // partition 1 owns nothing
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.part_of = {0, 1, 2, 1};  // partition id out of range
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(PdesContract, LookaheadViolationThrowsForEveryLayout) {
  for (int k : {1, 2}) {
    const auto topo = pdes::Topology::blocks(2, k, Time::ps(kLaPs));
    const auto build = [](pdes::Context& ctx) {
      pdes::Context* cp = &ctx;
      for (int n : ctx.nodes()) {
        ctx.on_message(n, [](pdes::Context&, int, std::uint64_t) {});
        if (n == 0) {
          ctx.engine().at(Time::ps(5 * kLaPs), EventFn::make([cp] {
                            // One tick short of the lookahead floor.
                            cp->send(0, 1, cp->now() + Time::ps(kLaPs - 1),
                                     1);
                          }));
        }
      }
    };
    EXPECT_THROW(pdes::run(topo, build), std::logic_error)
        << "partitions=" << k;
  }
}

TEST(PdesContract, SendFromUnownedNodeIsRejected) {
  const auto topo = pdes::Topology::blocks(2, 2, Time::ps(kLaPs));
  const auto build = [](pdes::Context& ctx) {
    pdes::Context* cp = &ctx;
    for (int n : ctx.nodes()) {
      ctx.on_message(n, [](pdes::Context&, int, std::uint64_t) {});
      if (n == 1) {
        ctx.engine().at(Time::ps(kLaPs), EventFn::make([cp] {
                          // Forged source: node 0 lives elsewhere.
                          cp->send(0, 1, cp->now() + Time::ps(kLaPs), 1);
                        }));
      }
    }
  };
  EXPECT_THROW(pdes::run(topo, build), std::logic_error);
}

TEST(PdesContract, DeadlockedProcessReportsLikeSequentialRun) {
  for (int k : {1, 2}) {
    const auto topo = pdes::Topology::blocks(2, k, Time::ps(kLaPs));
    const auto build = [](pdes::Context& ctx) {
      for (int n : ctx.nodes()) {
        ctx.on_message(n, [](pdes::Context&, int, std::uint64_t) {});
        if (n == 0) {
          // Non-daemon process suspended forever: global quiescence with
          // a live process is the deadlock the sequential engine reports.
          ctx.engine().spawn([]() -> mns::sim::Task<void> {
            co_await std::suspend_always{};
          }());
        }
      }
    };
    EXPECT_THROW(pdes::run(topo, build), DeadlockError) << "partitions=" << k;
  }
}

TEST(PdesContract, EventLimitSurfacesAsEventLimitError) {
  const auto topo = pdes::Topology::blocks(2, 2, Time::ps(kLaPs));
  const auto build = [](pdes::Context& ctx) {
    for (int n : ctx.nodes()) {
      ctx.on_message(n, [](pdes::Context& c, int node, std::uint64_t w) {
        c.send(node, 1 - node, c.now() + Time::ps(kLaPs), w + 1);
      });
      if (n == 0) {
        pdes::Context* cp = &ctx;
        ctx.engine().at(Time::ps(kLaPs), EventFn::make([cp] {
                          cp->send(0, 1, cp->now() + Time::ps(kLaPs), 0);
                        }));
      }
    }
  };
  EXPECT_THROW(pdes::run(topo, build, /*event_limit=*/200),
               EventLimitError);
}

// ---------------------------------------------------------------------------
// Executor abort hygiene. A round that fails while a delivery carrier is
// still queued leaves the carrier, and the boxed descriptor it owns, in
// the engine; the engine's owner destroys it after the executor. The
// carrier must free the box without reaching back into the executor.

int g_boxes_freed = 0;

TEST(FabricExecutorAbort, QueuedCarrierFreesItsBoxAfterExecutorIsGone) {
  g_boxes_freed = 0;
  Engine e0;
  Engine e1;
  auto exec = std::make_unique<pdes::FabricExecutor>(
      pdes::Topology::blocks(2, 2, Time::ps(kLaPs)),
      std::vector<Engine*>{&e0, &e1});
  exec->set_box_deleter([](void* b) {
    delete static_cast<int*>(b);
    ++g_boxes_freed;
  });
  for (int n : {0, 1}) {
    exec->set_handler(n, [](const pdes::WireMsg& m) {
      delete static_cast<int*>(m.box);
    });
  }
  pdes::FabricExecutor* ex = exec.get();
  const Time t = Time::ps(10 * kLaPs);
  EXPECT_THROW(
      exec->run_round([&](int p) {
        if (p == 1) {
          // Partition 1 ships a boxed message to node 0 for time t ...
          e1.at(t - Time::ps(kLaPs), EventFn::make([ex, t] {
                  ex->send(1, 0, t, 0, 0, 0, new int(1));
                }));
        } else {
          // ... while partition 0's own event at t, queued ahead of the
          // delivery carrier, fails.
          e0.at(t, EventFn::make([] {
                  throw std::runtime_error("event at t failed");
                }));
        }
      }),
      std::runtime_error);
  ASSERT_EQ(e0.pending_events(), 1u);  // the carrier, never run
  exec.reset();
  EXPECT_EQ(g_boxes_freed, 0);
  e0.drop_processes();
  EXPECT_EQ(g_boxes_freed, 1);
}

}  // namespace
