#include "sim/pdes/fabric_exec.hpp"

#include "util/annotations.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mns::sim::pdes {

namespace {

constexpr std::int64_t kInf = INT64_MAX;

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  return a >= kInf - b ? kInf : a + b;
}

// Max-heap comparator inverted into min-heap (when, src, idx) pops —
// the partition-invariant delivery order.
struct MsgAfter {
  bool operator()(const WireMsg& a, const WireMsg& b) const noexcept {
    if (a.when_ps != b.when_ps) return a.when_ps > b.when_ps;
    if (a.src_node != b.src_node) return a.src_node > b.src_node;
    return a.send_idx > b.send_idx;
  }
};

void free_box(BoxDeleter del, WireMsg& m) {
  if (m.box != nullptr && del != nullptr) del(m.box);
  m.box = nullptr;
}

}  // namespace

// One delivery carrier: the same-instant messages of one partition, in
// (when, src, idx) order. It owns each boxed descriptor until that
// message is dispatched, so a carrier destroyed unrun (an aborted round's
// engine being dropped, possibly after the executor is gone) still frees
// them. Only running it needs the executor, and a carrier runs only
// inside a round; its destructor uses its own copy of the deleter.
struct FabricExecutor::Batch {
  FabricExecutor* ex;
  BoxDeleter del;
  std::vector<WireMsg> msgs;

  Batch(FabricExecutor* e, BoxDeleter d, std::vector<WireMsg> m)
      : ex(e), del(d), msgs(std::move(m)) {}
  Batch(Batch&&) noexcept = default;
  ~Batch() {
    for (WireMsg& m : msgs) free_box(del, m);
  }
  void operator()() {
    for (WireMsg& m : msgs) {
      ex->dispatch(m);
      m.box = nullptr;  // ownership passed to the handler
    }
  }
};

FabricExecutor::FabricExecutor(Topology topo, std::vector<Engine*> engines)
    : topo_(std::move(topo)),
      engines_(std::move(engines)),
      handlers_(static_cast<std::size_t>(topo_.nodes)),
      send_idx_(static_cast<std::size_t>(topo_.nodes), 0),
      idle_(static_cast<std::size_t>(topo_.partitions), false),
      errors_(static_cast<std::size_t>(topo_.partitions)) {
  topo_.validate();
  if (engines_.size() != static_cast<std::size_t>(topo_.partitions)) {
    throw std::invalid_argument(
        "FabricExecutor: need exactly one engine per partition");
  }
  const int k = topo_.partitions;
  parts_.resize(static_cast<std::size_t>(k));
  for (auto& p : parts_) p = std::make_unique<Part>();
  chan_.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (auto& c : chan_) c = std::make_unique<Channel>();
  pool_.reserve(static_cast<std::size_t>(k - 1));
}

FabricExecutor::~FabricExecutor() {
  {
    std::lock_guard<std::mutex> g(round_mu_);
    quit_ = true;
  }
  round_cv_.notify_all();
  for (auto& th : pool_) th.join();
  // Abort-path hygiene: free any boxed descriptors still buffered.
  for (auto& ch : chan_) {
    for (WireMsg& m : ch->buf) free_box(box_deleter_, m);
  }
  for (auto& part : parts_) {
    for (WireMsg& m : part->pending) free_box(box_deleter_, m);
  }
}

void FabricExecutor::set_handler(int node, WireHandler h) {
  handlers_[static_cast<std::size_t>(node)] = std::move(h);
}

std::vector<FabricExecutor::PartStats> FabricExecutor::part_stats() const {
  std::vector<PartStats> out;
  out.reserve(parts_.size());
  for (const auto& part : parts_) out.push_back(part->stats);
  return out;
}

void FabricExecutor::send(int src_node, int dst_node, Time when,
                          std::uint64_t a, std::uint64_t b, std::uint64_t c,
                          void* box) {
  const int p = topo_.part_of[static_cast<std::size_t>(src_node)];
  const int q = topo_.part_of[static_cast<std::size_t>(dst_node)];
  const std::int64_t now_ps = engines_[static_cast<std::size_t>(p)]
                                  ->now()
                                  .count_ps();
  const std::int64_t when_ps = when.count_ps();
  if (when_ps < sat_add(now_ps, topo_.lookahead.count_ps())) {
    // Enforced for *every* pair, intra-partition included, so whether a
    // workload is legal never depends on the layout.
    throw std::logic_error(
        "FabricExecutor: send violates lookahead (when < now + lookahead)");
  }
  WireMsg m;
  m.when_ps = when_ps;
  m.src_node = src_node;
  m.dst_node = dst_node;
  m.send_idx = send_idx_[static_cast<std::size_t>(src_node)]++;
  m.a = a;
  m.b = b;
  m.c = c;
  m.box = box;
  Part& mine = *parts_[static_cast<std::size_t>(p)];
  if (q == p) {
    // Amortized growth of the owner's merge heap; same-partition sends
    // re-enter through it so ordering is layout-independent.
    mine.pending.push_back(m);  // simcheck-allow: hot-alloc
    std::push_heap(mine.pending.begin(), mine.pending.end(), MsgAfter{});
    return;
  }
  // sent_ is counted before the push: the termination check treats
  // sent != received as "message still in motion".
  mine.stats.sent += 1;
  sent_.fetch_add(1, std::memory_order_seq_cst);
  Channel& ch = channel(p, q);
  std::lock_guard<std::mutex> g(ch.mu);
  if (when_ps < ch.min_when.load(std::memory_order_seq_cst)) {
    ch.min_when.store(when_ps, std::memory_order_seq_cst);
  }
  // Channel buffers keep their capacity across rounds; growth is a
  // warm-up cost, not a steady-state one.
  ch.buf.push_back(m);  // simcheck-allow: hot-alloc
}

void FabricExecutor::run_round(const std::function<void(int)>& setup) {
  const int k = topo_.partitions;
  for (auto& part : parts_) part->known.store(0, std::memory_order_seq_cst);
  std::fill(idle_.begin(), idle_.end(), false);
  sent_.store(0, std::memory_order_seq_cst);
  received_.store(0, std::memory_order_seq_cst);
  done_.store(false, std::memory_order_seq_cst);
  abort_.store(false, std::memory_order_seq_cst);
  errors_.assign(static_cast<std::size_t>(k), nullptr);
  {
    std::lock_guard<std::mutex> g(round_mu_);
    setup_ = &setup;
    done_workers_ = 0;
    ++round_gen_;
  }
  round_cv_.notify_all();
  // Workers are created by the first round, after it is published, not
  // parked at construction: a new thread starts on an idle core, while a
  // parked one woken here can queue behind this busy thread until the
  // scheduler migrates it — milliseconds a one-round pdes::run pays in
  // full.
  try {
    for (int p = static_cast<int>(pool_.size()) + 1; p < k; ++p) {
      pool_.emplace_back([this, p] { thread_main(p); });
    }
  } catch (...) {
    // Without all its partitions the round cannot finish: fail it, so
    // the workers that did start see the abort and park.
    errors_[0] = std::current_exception();
    abort_.store(true, std::memory_order_seq_cst);
  }
  round(0);
  {
    std::unique_lock<std::mutex> lk(round_mu_);
    park_cv_.wait(lk, [&] {
      return done_workers_ == static_cast<int>(pool_.size());
    });
    setup_ = nullptr;
  }
  for (std::size_t p = 0; p < errors_.size(); ++p) {
    if (errors_[p]) std::rethrow_exception(errors_[p]);
  }
}

void FabricExecutor::thread_main(int p) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(round_mu_);
      round_cv_.wait(lk, [&] { return quit_ || round_gen_ > seen; });
      if (quit_) return;
      seen = round_gen_;
    }
    round(p);
    {
      std::lock_guard<std::mutex> g(round_mu_);
      ++done_workers_;
    }
    park_cv_.notify_one();
  }
}

void FabricExecutor::round(int p) {
  Engine& eng = *engines_[static_cast<std::size_t>(p)];
  try {
    if (setup_) (*setup_)(p);
    loop(p, eng);
    if (!abort_.load(std::memory_order_acquire) && eng.live_processes() > 0) {
      // Global quiescence with live non-daemon processes: the same
      // deadlock the sequential run() reports.
      throw DeadlockError(eng.live_processes());
    }
  } catch (...) {
    std::lock_guard<std::mutex> g(term_mu_);
    errors_[static_cast<std::size_t>(p)] = std::current_exception();
    abort_.store(true, std::memory_order_release);
  }
}

// The barrier-free LBTS loop.
//
// Safe time. Every partition publishes its `known` horizon (earliest
// unprocessed event, local or pending delivery); every channel publishes
// the minimum timestamp buffered in it. Any future message descends,
// through executions each adding >= 0 and a final send adding
// >= lookahead, from one of those locations, so
//   safe = min(every known horizon, every channel minimum) + lookahead
// bounds every delivery this partition can still receive, and every
// event strictly before `safe` can run now.
//
// The seqlock. Evidence of one in-flight message MOVES between those
// locations over its life (sender horizon -> channel minimum -> receiver
// horizon, each new location written before the old one is released),
// so a fixed-order scan — in any order, however many passes — can be
// defeated by a transfer chain interleaving with it. The two writes that
// remove evidence (raising a horizon at round end, resetting a drained
// channel's minimum) therefore go through remove_evidence(): they
// serialize on gen_mu_ (single writer, so odd/even parity is
// meaningful) and hold gen_ odd for their duration. A scan accepts only a
// minimum read entirely within one even, unchanged generation — a window
// in which no evidence vanished, so whatever evidence existed when the
// window opened was still in place when each location was read.
// Evidence-adding writes (a send lowering a channel minimum, a drain
// lowering the receiver's horizon) bypass the lock: a scan that sees
// them early only computes a smaller, more conservative safe time. Lock
// order: ch.mu -> gen_mu_ (drain); the raise site takes gen_mu_ alone.
//
// With one partition there is nothing to scan or drain: safe is
// unbounded and the loop reduces to the sequential engine interleaved
// with the partition's own (self-sent) deliveries.
void FabricExecutor::loop(int p, Engine& eng) {
  Part& mine = *parts_[static_cast<std::size_t>(p)];
  PartStats& st = mine.stats;
  const bool sync = topo_.partitions > 1;
  const std::int64_t la = topo_.lookahead.count_ps();
  bool is_idle = false;
  for (;;) {
    if (abort_.load(std::memory_order_acquire)) return;
    if (done_.load(std::memory_order_acquire)) break;

    std::int64_t m = kInf;
    if (sync) {
      st.lbts_rounds += 1;
      for (;;) {
        const std::uint64_t g0 = gen_.load(std::memory_order_seq_cst);
        if ((g0 & 1) == 0) {
          m = kInf;
          for (const auto& ch : chan_) {
            m = std::min(m, ch->min_when.load(std::memory_order_seq_cst));
          }
          for (const auto& part : parts_) {
            m = std::min(m, part->known.load(std::memory_order_seq_cst));
          }
          if (gen_.load(std::memory_order_seq_cst) == g0) break;
        }
        if (abort_.load(std::memory_order_relaxed)) return;
      }
      drain(p, is_idle);
    }
    const std::int64_t safe = sat_add(m, la);

    // Execute everything strictly before the safe time, interleaving
    // deliveries with engine events: all deliveries for time t are
    // injected (as one batch, in (when, src, idx) order) before the first
    // event at t runs — the partition-invariant moment.
    bool progressed = false;
    for (;;) {
      const std::int64_t t_local = eng.next_event_at_ps();
      const std::int64_t t_chan =
          mine.pending.empty() ? kInf : mine.pending.front().when_ps;
      const std::int64_t t = std::min(t_local, t_chan);
      if (t >= safe) break;
      if (t_chan <= t_local) {
        deliver_batch(mine, eng, t_chan);
      } else {
        eng.step_one();
      }
      progressed = true;
      if (abort_.load(std::memory_order_relaxed)) return;
    }
    st.events = eng.events_processed();

    // Publish the new horizon (owner-only). Lowering it adds evidence
    // and may race freely with scans; raising it removes evidence.
    const std::int64_t horizon =
        std::min(eng.next_event_at_ps(),
                 mine.pending.empty() ? kInf : mine.pending.front().when_ps);
    const std::int64_t prev = mine.known.load(std::memory_order_relaxed);
    if (horizon > prev) {
      remove_evidence(
          [&] { mine.known.store(horizon, std::memory_order_seq_cst); });
    } else if (horizon < prev) {
      mine.known.store(horizon, std::memory_order_seq_cst);
    }

    if (horizon == kInf) {
      // Termination. Quiescent: flag it and test global termination.
      // Idle flags only change under term_mu_, sends count before the
      // channel push and drains clear the flag before counting the
      // receive, so "all idle and sent == received" can only be observed
      // when no message can ever wake anyone again.
      std::lock_guard<std::mutex> g(term_mu_);
      if (!is_idle) {
        idle_[static_cast<std::size_t>(p)] = true;
        is_idle = true;
      }
      if (std::all_of(idle_.begin(), idle_.end(), [](bool b) { return b; }) &&
          sent_.load(std::memory_order_seq_cst) ==
              received_.load(std::memory_order_seq_cst)) {
        done_.store(true, std::memory_order_release);
        break;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
}

// MNS_HOT: the pending-heap push_back grows amortized — capacity is
// retained across rounds, so steady state stops allocating once the heap
// has seen its high-water mark.
MNS_HOT void FabricExecutor::drain(int p, bool& is_idle) {
  Part& mine = *parts_[static_cast<std::size_t>(p)];
  const int k = topo_.partitions;
  std::vector<WireMsg> got;
  for (int q = 0; q < k; ++q) {
    if (q == p) continue;
    Channel& ch = channel(q, p);
    if (ch.min_when.load(std::memory_order_seq_cst) == kInf) continue;
    got.clear();
    {
      std::lock_guard<std::mutex> g(ch.mu);
      got.swap(ch.buf);
      std::int64_t mn = kInf;
      for (const WireMsg& msg : got) mn = std::min(mn, msg.when_ps);
      // Take responsibility for the drained messages *before* the
      // channel forgets them: lower our horizon first (evidence-adding,
      // lock-free), then clear the in-flight minimum through the seqlock
      // — the clear is an evidence removal, legal only because the
      // lowered horizon now carries the same evidence.
      if (mn < mine.known.load(std::memory_order_seq_cst)) {
        mine.known.store(mn, std::memory_order_seq_cst);
      }
      remove_evidence(
          [&] { ch.min_when.store(kInf, std::memory_order_seq_cst); });
    }
    if (got.empty()) continue;
    if (is_idle) {
      std::lock_guard<std::mutex> g(term_mu_);
      idle_[static_cast<std::size_t>(p)] = false;
      is_idle = false;
    }
    received_.fetch_add(got.size(), std::memory_order_seq_cst);
    mine.stats.received += got.size();
    for (const WireMsg& msg : got) {
      mine.pending.push_back(msg);
      std::push_heap(mine.pending.begin(), mine.pending.end(), MsgAfter{});
    }
  }
}

void FabricExecutor::dispatch(const WireMsg& m) {
  const WireHandler& h = handlers_[static_cast<std::size_t>(m.dst_node)];
  if (!h) {
    throw std::logic_error("FabricExecutor: message for node " +
                           std::to_string(m.dst_node) +
                           " with no registered handler");
  }
  h(m);
}

// Pop every pending delivery at time t (the heap yields them in
// (when, src, idx) order) and inject them as ONE engine event. The engine
// assigns a drained group contiguous seqs either way, so fusing them
// cannot reorder anything — it just replaces n queue entries with one.
// MNS_HOT: one vector per same-timestamp batch, not per message — the
// batch owns its boxed descriptors until the carrier runs, so it cannot
// live in a pool keyed to this call.
MNS_HOT void FabricExecutor::deliver_batch(Part& mine, Engine& eng,
                                           std::int64_t t) {
  std::vector<WireMsg> msgs;
  while (!mine.pending.empty() && mine.pending.front().when_ps == t) {
    std::pop_heap(mine.pending.begin(), mine.pending.end(), MsgAfter{});
    msgs.push_back(mine.pending.back());
    mine.pending.pop_back();
  }
  mine.stats.batches += 1;
  eng.at(Time::ps(t),
         EventFn::make(Batch(this, box_deleter_, std::move(msgs))));
}

}  // namespace mns::sim::pdes
