// Unit tests for the MPI layer's internal pieces: Views, matching,
// requests, reductions, topology mapping.
#include <gtest/gtest.h>

#include <cstring>

#include "mpi/comm.hpp"
#include "mpi/matcher.hpp"
#include "mpi/mpi.hpp"
#include "mpi/request.hpp"
#include "sim/engine.hpp"

namespace {

using namespace mns;
using namespace mns::mpi;

TEST(View, RealViewsCarryDataAndIdentity) {
  double buf[4] = {1, 2, 3, 4};
  const View v = View::out(buf, sizeof buf);
  EXPECT_EQ(v.bytes(), 32u);
  EXPECT_FALSE(v.synthetic());
  EXPECT_TRUE(v.writable());
  EXPECT_EQ(v.addr(), reinterpret_cast<std::uint64_t>(buf));
  const View r = View::in(buf, sizeof buf);
  EXPECT_FALSE(r.writable());
}

TEST(View, SyntheticViewsHaveNoData) {
  const View v = View::synth(0xABC, 1 << 20);
  EXPECT_TRUE(v.synthetic());
  EXPECT_EQ(v.addr(), 0xABCu);
  EXPECT_EQ(v.data(), nullptr);
}

TEST(View, CopyPayloadSkipsSynthetic) {
  double src[2] = {7, 8}, dst[2] = {0, 0};
  copy_payload(View::in(src, 16), View::synth(1, 16), 16);  // no crash
  copy_payload(View::synth(1, 16), View::out(dst, 16), 16);
  EXPECT_EQ(dst[0], 0);
  copy_payload(View::in(src, 16), View::out(dst, 16), 16);
  EXPECT_EQ(dst[1], 8);
}

TEST(Envelope, WildcardMatching) {
  const Envelope env{3, 0, 42, 100};
  EXPECT_TRUE(matches(3, 42, env));
  EXPECT_TRUE(matches(kAnySource, 42, env));
  EXPECT_TRUE(matches(3, kAnyTag, env));
  EXPECT_TRUE(matches(kAnySource, kAnyTag, env));
  EXPECT_FALSE(matches(2, 42, env));
  EXPECT_FALSE(matches(3, 41, env));
}

TEST(Matcher, PostedFifoPerMatch) {
  sim::Engine eng;
  Matcher m;
  auto req1 = std::make_shared<RequestState>(eng);
  auto req2 = std::make_shared<RequestState>(eng);
  m.post(PostedRecv{kAnySource, kAnyTag, View::synth(1, 8), req1.get()});
  m.post(PostedRecv{kAnySource, kAnyTag, View::synth(2, 8), req2.get()});
  const auto hit = m.match_arrival(Envelope{0, 0, 5, 8});
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->req, req1.get());  // earliest posted wins
  EXPECT_EQ(m.posted_count(), 1u);
}

TEST(Matcher, TagSelectivity) {
  sim::Engine eng;
  Matcher m;
  auto req1 = std::make_shared<RequestState>(eng);
  auto req2 = std::make_shared<RequestState>(eng);
  m.post(PostedRecv{0, 7, View::synth(1, 8), req1.get()});
  m.post(PostedRecv{0, 9, View::synth(2, 8), req2.get()});
  const auto hit = m.match_arrival(Envelope{0, 0, 9, 8});
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->req, req2.get());
  EXPECT_FALSE(m.match_arrival(Envelope{1, 0, 7, 8}));  // wrong source
}

TEST(Matcher, WildcardAndDirectedInterleaveByPostOrder) {
  // Directed receives live in (src, tag) buckets, wildcards on a side
  // list; matching must still follow global post order across the two.
  sim::Engine eng;
  Matcher m;
  auto r1 = std::make_shared<RequestState>(eng);
  auto r2 = std::make_shared<RequestState>(eng);
  auto r3 = std::make_shared<RequestState>(eng);
  auto r4 = std::make_shared<RequestState>(eng);
  m.post(PostedRecv{1, 5, View::synth(1, 8), r1.get()});          // exact
  m.post(PostedRecv{kAnySource, 5, View::synth(2, 8), r2.get()});  // wildcard
  m.post(PostedRecv{1, 5, View::synth(3, 8), r3.get()});          // exact
  m.post(PostedRecv{kAnySource, kAnyTag, View::synth(4, 8), r4.get()});
  const Envelope env{1, 0, 5, 8};
  auto a = m.match_arrival(env);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->req, r1.get());  // oldest overall, exact bucket
  auto b = m.match_arrival(env);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->req, r2.get());  // wildcard posted before r3
  auto c = m.match_arrival(env);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->req, r3.get());
  // Remaining any/any wildcard catches an unrelated envelope.
  auto d = m.match_arrival(Envelope{9, 0, 99, 8});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->req, r4.get());
  EXPECT_EQ(m.posted_count(), 0u);
  EXPECT_FALSE(m.match_arrival(env));
}

TEST(Matcher, UnexpectedWildcardDrainsOldestAcrossBuckets) {
  // Unexpected messages bucket by their concrete (src, tag); a wildcard
  // receive must still claim them in arrival order across buckets.
  Matcher m;
  auto claim = [](PostedRecv) -> sim::Task<void> { co_return; };
  m.add_unexpected({Envelope{2, 0, 1, 10}, claim});
  m.add_unexpected({Envelope{3, 0, 1, 20}, claim});
  m.add_unexpected({Envelope{2, 0, 7, 30}, claim});
  const Unexpected* peek = m.peek_unexpected(kAnySource, 1);
  ASSERT_TRUE(peek);
  EXPECT_EQ(peek->env.bytes, 10u);
  auto u1 = m.match_posted(kAnySource, 1);
  ASSERT_TRUE(u1);
  EXPECT_EQ(u1->env.src, 2);
  EXPECT_EQ(u1->env.bytes, 10u);
  auto u2 = m.match_posted(kAnySource, kAnyTag);
  ASSERT_TRUE(u2);
  EXPECT_EQ(u2->env.bytes, 20u);  // older than the tag-7 message
  auto u3 = m.match_posted(2, 7);
  ASSERT_TRUE(u3);
  EXPECT_EQ(u3->env.bytes, 30u);
  EXPECT_EQ(m.unexpected_count(), 0u);
  EXPECT_FALSE(m.peek_unexpected(kAnySource, kAnyTag));
}

TEST(Matcher, UnexpectedQueueFifo) {
  Matcher m;
  int claimed = 0;
  m.add_unexpected({Envelope{2, 0, 1, 10},
                    [&](PostedRecv) -> sim::Task<void> {
                      claimed = 1;
                      co_return;
                    }});
  m.add_unexpected({Envelope{2, 0, 1, 20},
                    [&](PostedRecv) -> sim::Task<void> {
                      claimed = 2;
                      co_return;
                    }});
  auto u = m.match_posted(2, 1);
  ASSERT_TRUE(u);
  EXPECT_EQ(u->env.bytes, 10u);  // arrival order preserved
  EXPECT_EQ(m.unexpected_count(), 1u);
  EXPECT_TRUE(m.peek_unexpected(2, 1));
  EXPECT_FALSE(m.peek_unexpected(3, 1));
}

TEST(Request, NullRequestIsDone) {
  Request r;
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.valid());
  EXPECT_EQ(r.status().bytes, 0u);
}

TEST(Request, CompletionWakesWaiter) {
  sim::Engine eng;
  auto st = std::make_shared<RequestState>(eng);
  Request r(st.get());
  EXPECT_FALSE(r.done());
  Status seen{};
  eng.spawn([](Request r, Status& out) -> sim::Task<void> {
    out = co_await r.await_done();
  }(r, seen));
  eng.after(sim::Time::us(3), [st] { st->complete(Status{4, 9, 128}); });
  eng.run();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(seen.source, 4);
  EXPECT_EQ(seen.tag, 9);
  EXPECT_EQ(seen.bytes, 128u);
}

TEST(ReducePayload, AllTypesAndOps) {
  {
    double a[3] = {1, 5, 2}, b[3] = {4, 2, 2};
    reduce_payload(View::in(a, 24), View::out(b, 24), 3, Dtype::kDouble,
                   ROp::kSum);
    EXPECT_DOUBLE_EQ(b[0], 5);
    EXPECT_DOUBLE_EQ(b[1], 7);
  }
  {
    std::int32_t a[2] = {3, -7}, b[2] = {1, 9};
    reduce_payload(View::in(a, 8), View::out(b, 8), 2, Dtype::kInt32,
                   ROp::kMax);
    EXPECT_EQ(b[0], 3);
    EXPECT_EQ(b[1], 9);
  }
  {
    std::int64_t a[2] = {3, -7}, b[2] = {1, 9};
    reduce_payload(View::in(a, 16), View::out(b, 16), 2, Dtype::kInt64,
                   ROp::kMin);
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[1], -7);
  }
  {
    unsigned char a[2] = {3, 200}, b[2] = {10, 50};
    reduce_payload(View::in(a, 2), View::out(b, 2), 2, Dtype::kByte,
                   ROp::kSum);
    EXPECT_EQ(b[0], 13);
  }
}

TEST(Topology, BlockMapping) {
  const auto t = Topology::block(4, 2);
  ASSERT_EQ(t.rank_node.size(), 8u);
  EXPECT_EQ(t.rank_node[0], 0);
  EXPECT_EQ(t.rank_node[1], 0);
  EXPECT_EQ(t.rank_node[2], 1);
  EXPECT_EQ(t.rank_node[7], 3);
}

TEST(Mpi, SlotsAndNodesResolve) {
  sim::Engine eng;
  Mpi mpi(eng, Topology::block(2, 2));
  EXPECT_EQ(mpi.size(), 4u);
  EXPECT_TRUE(mpi.same_node(0, 1));
  EXPECT_FALSE(mpi.same_node(1, 2));
  EXPECT_EQ(mpi.proc(0).slot(), 0);
  EXPECT_EQ(mpi.proc(1).slot(), 1);
  EXPECT_EQ(mpi.proc(2).slot(), 0);
  EXPECT_THROW(mpi.device(), std::logic_error);  // none installed yet
}

TEST(DtypeSize, Sizes) {
  EXPECT_EQ(dtype_size(Dtype::kByte), 1u);
  EXPECT_EQ(dtype_size(Dtype::kInt32), 4u);
  EXPECT_EQ(dtype_size(Dtype::kInt64), 8u);
  EXPECT_EQ(dtype_size(Dtype::kDouble), 8u);
}

}  // namespace
