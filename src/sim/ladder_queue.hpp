// The engine's future-event queue: a ladder queue after Tang, Goh & Thng
// ("Ladder Queue: An O(1) Priority Queue Structure for Large-Scale
// Discrete Event Simulation", ACM TOMACS 15(3), 2005).
//
// Three tiers, ordered by time:
//
//   top     an unsorted list of events at or beyond top_start_. A push
//           there is O(1); the whole list moves down only when the lower
//           tiers run dry.
//   rungs   up to kMaxRungs bucket arrays, coarsest first. A rung covers
//           one time range in equal power-of-two buckets, each bucket an
//           unsorted list. A push that lands inside a rung links into its
//           bucket in O(1). Popping takes the rung's next non-empty
//           bucket: a small one is sorted into the bottom, a crowded one
//           spawns a finer rung over just its own range.
//   bottom  a short sorted array the pops consume from its head.
//
// A push therefore moves at most kBottomMax entries: the bottom holds
// one bucket's worth of events, and a push that would grow it past
// kBottomMax (with more than one timestamp in it) re-buckets it into a
// new rung instead. The one exception is a block of more than kBottomMax
// pending events sharing a single picosecond, which no time bucket can
// split; a push next to such a block may move it.
//
// Keys are unique (the engine's (time, seq) pair), so the pop sequence is
// exactly the sorted key sequence. Buckets are keyed on the time half
// only; every comparison that orders entries uses the full key. List
// nodes live in one recycled pool and the rung and bottom arrays keep
// their capacity, so after warm-up no operation allocates. Times must lie
// below the largest representable picosecond (bucket edges are exclusive).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/annotations.hpp"

namespace mns::sim {

template <class Key>
class LadderQueue {
 public:
  struct Entry {
    Key key;
    std::uint32_t slot;
  };

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// MNS_HOT: warm-up-only growth of the node pool and the bottom.
  MNS_HOT void reserve(std::size_t n) {
    nodes_.reserve(n);
    bottom_.reserve(std::min<std::size_t>(n, 4 * kBottomMax));
  }

  void clear() noexcept {
    nodes_.clear();
    free_ = kNil;
    reset_top();
    top_start_ = 0;
    nrungs_ = 0;
    bottom_.clear();
    bhead_ = 0;
    size_ = 0;
  }

  /// MNS_HOT: the node pool and bucket arrays grow only while the number
  /// of pending events exceeds every earlier peak.
  MNS_HOT void push(Key key, std::uint32_t slot) {
    ++size_;
    const std::uint64_t t = time_of(key);
    if (t >= top_start_) {
      const std::uint32_t n = new_node(key, slot);
      nodes_[n].next = top_head_;
      top_head_ = n;
      ++top_n_;
      top_min_ = std::min(top_min_, t);
      top_max_ = std::max(top_max_, t);
      return;
    }
    for (int r = 0; r < nrungs_; ++r) {
      Rung& g = rungs_[static_cast<std::size_t>(r)];
      if (t >= g.rcur) {
        link(g, static_cast<std::size_t>((t - g.start) >> g.shift),
             new_node(key, slot));
        return;
      }
    }
    bottom_insert(Entry{key, slot}, t);
  }

  /// Minimum entry. Precondition: !empty().
  const Entry& top() {
    if (bhead_ == bottom_.size()) refill();
    return bottom_[bhead_];
  }

  /// The entry after the minimum if it is already sorted into the
  /// bottom (a prefetch hint), else nullptr.
  const Entry* peek_second() const noexcept {
    return bhead_ + 1 < bottom_.size() ? &bottom_[bhead_ + 1] : nullptr;
  }

  /// Remove and return the minimum entry. Precondition: !empty().
  Entry pop() {
    if (bhead_ == bottom_.size()) refill();
    const Entry e = bottom_[bhead_++];
    if (--size_ == 0) {
      // Drained: start over, so the next burst is bucketed afresh
      // instead of landing in stale rungs.
      bottom_.clear();
      bhead_ = 0;
      nrungs_ = 0;
      top_start_ = 0;
    } else if (bhead_ >= kBottomMax && 2 * bhead_ >= bottom_.size()) {
      // Pushes keep landing in a bottom that never drains (its last
      // entry lies far ahead): drop the consumed prefix, so the array
      // stays proportional to its live entries.
      bottom_.erase(bottom_.begin(),
                    bottom_.begin() + static_cast<std::ptrdiff_t>(bhead_));
      bhead_ = 0;
    }
    return e;
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  // A bucket holding more than kThres events spawns a finer rung rather
  // than being sorted (the paper's THRES).
  static constexpr std::size_t kThres = 48;
  static constexpr std::size_t kBottomMax = kThres;
  // A rung spawned from a crowded bucket narrows buckets by a factor of
  // about kThres, so 64 bits of time run out long before this depth; at
  // the limit a crowded bucket is sorted whole.
  static constexpr int kMaxRungs = 24;

  struct Node {
    Entry e;
    std::uint32_t next;
  };

  struct Rung {
    std::uint64_t start = 0;  // time of bucket 0's lower edge
    std::uint64_t rcur = 0;   // lower edge of bucket `cur`
    int shift = 0;            // bucket width = 1 << shift
    std::size_t cur = 0;      // every bucket below cur is empty
    std::size_t nb = 0;
    std::size_t live = 0;     // entries linked into this rung
    std::vector<std::uint32_t> head;
    std::vector<std::uint32_t> count;
  };

  // Time half of the key as an unsigned coordinate with the same order.
  static std::uint64_t time_of(const Key& k) noexcept {
    return static_cast<std::uint64_t>(k.at_ps()) ^ (std::uint64_t{1} << 63);
  }

  // a + (n << s), saturating (keeps edges exact for any realistic time).
  static std::uint64_t edge(std::uint64_t a, std::size_t n, int s) noexcept {
    const unsigned __int128 v =
        static_cast<unsigned __int128>(a) +
        (static_cast<unsigned __int128>(n) << s);
    return v > UINT64_MAX ? UINT64_MAX : static_cast<std::uint64_t>(v);
  }

  // Smallest shift giving at most `n` buckets over `span` time units.
  static int shift_for(std::uint64_t span, std::size_t n) noexcept {
    int s = 0;
    while (s < 63 && ((span - 1) >> s) + 1 > n) ++s;
    return s;
  }

  /// MNS_HOT: the node pool grows only past the peak number of pending
  /// events; freed nodes are reused first.
  MNS_HOT std::uint32_t new_node(const Key& key, std::uint32_t slot) {
    std::uint32_t n;
    if (free_ != kNil) {
      n = free_;
      free_ = nodes_[n].next;
      nodes_[n].e = Entry{key, slot};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{Entry{key, slot}, kNil});
    }
    return n;
  }

  void free_node(std::uint32_t n) noexcept {
    nodes_[n].next = free_;
    free_ = n;
  }

  static void link_raw(Rung& g, std::size_t b, Node& node, std::uint32_t n) {
    node.next = g.head[b];
    g.head[b] = n;
    ++g.count[b];
    ++g.live;
  }
  void link(Rung& g, std::size_t b, std::uint32_t n) {
    link_raw(g, b, nodes_[n], n);
  }

  void reset_top() noexcept {
    top_head_ = kNil;
    top_n_ = 0;
    top_min_ = UINT64_MAX;
    top_max_ = 0;
  }

  // Open a new rung covering [start, end) with at most `n` buckets.
  // MNS_HOT: a rung's bucket arrays keep their capacity across reuse.
  MNS_HOT Rung& open_rung(std::uint64_t start, std::uint64_t end,
                          std::size_t n) {
    Rung& g = rungs_[static_cast<std::size_t>(nrungs_++)];
    g.start = start;
    g.rcur = start;
    g.shift = shift_for(end - start, std::max<std::size_t>(n, 2));
    g.cur = 0;
    g.nb = static_cast<std::size_t>(((end - start - 1) >> g.shift) + 1);
    g.live = 0;
    g.head.assign(g.nb, kNil);
    g.count.assign(g.nb, 0);
    return g;
  }

  // Relink the list starting at `n` into rung g.
  void scatter(Rung& g, std::uint32_t n) {
    while (n != kNil) {
      Node& node = nodes_[n];
      const std::uint32_t next = node.next;
      link_raw(g,
               static_cast<std::size_t>((time_of(node.e.key) - g.start) >>
                                        g.shift),
               node, n);
      n = next;
    }
  }

  // Move the list starting at `n` into the (empty) bottom, sorted.
  // MNS_HOT: the bottom keeps its capacity across refills.
  MNS_HOT void sort_into_bottom(std::uint32_t n) {
    bottom_.clear();
    bhead_ = 0;
    while (n != kNil) {
      const std::uint32_t next = nodes_[n].next;
      bottom_.push_back(nodes_[n].e);
      free_node(n);
      n = next;
    }
    std::sort(bottom_.begin(), bottom_.end(),
              [](const Entry& a, const Entry& b) { return a.key.before(b.key); });
  }

  // Upper edge of the range below every rung: the bottom's territory.
  std::uint64_t bottom_end() const noexcept {
    return nrungs_ > 0 ? rungs_[static_cast<std::size_t>(nrungs_ - 1)].rcur
                       : top_start_;
  }

  // MNS_HOT: the bottom keeps its capacity; it holds at most kBottomMax
  // entries spanning more than one timestamp.
  MNS_HOT void bottom_insert(const Entry& e, std::uint64_t t) {
    const auto less = [](const Entry& a, const Entry& b) {
      return a.key.before(b.key);
    };
    const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(bhead_);
    const auto pos = std::upper_bound(first, bottom_.end(), e, less);
    const std::size_t live = bottom_.size() - bhead_;
    if (live >= kBottomMax && nrungs_ < kMaxRungs &&
        (time_of(first->key) != t || time_of(bottom_.back().key) != t)) {
      // Full and splittable: re-bucket the bottom (and this push) into a
      // new lowest rung over the bottom's whole territory.
      const std::uint64_t lo = std::min(t, time_of(first->key));
      Rung& g = open_rung(lo, bottom_end(), live + 1);
      for (auto it = first; it != bottom_.end(); ++it) {
        link(g, static_cast<std::size_t>((time_of(it->key) - g.start) >> g.shift),
             new_node(it->key, it->slot));
      }
      link(g, static_cast<std::size_t>((t - g.start) >> g.shift),
           new_node(e.key, e.slot));
      bottom_.clear();
      bhead_ = 0;
      return;
    }
    if (pos == bottom_.end()) {
      bottom_.push_back(e);
    } else if (bhead_ > 0 &&
               static_cast<std::size_t>(pos - first) <
                   static_cast<std::size_t>(bottom_.end() - pos)) {
      // Shift the shorter, leading side into the slack the pops left.
      std::move(first, pos, first - 1);
      *(pos - 1) = e;
      --bhead_;
    } else {
      bottom_.insert(pos, e);
    }
  }

  // Refill the empty bottom from the lowest non-empty bucket, spawning
  // finer rungs through crowded buckets. Precondition: size_ > 0.
  void refill() {
    bottom_.clear();
    bhead_ = 0;
    for (;;) {
      if (nrungs_ == 0) {
        // Ladder empty: everything left is in top. Few events, or all at
        // one instant, go straight to the bottom; otherwise top becomes
        // the first rung.
        const std::uint32_t list = top_head_;
        const std::size_t n = top_n_;
        const std::uint64_t lo = top_min_;
        const std::uint64_t hi = top_max_;
        reset_top();
        if (n <= kThres || lo == hi) {
          top_start_ = hi == UINT64_MAX ? hi : hi + 1;
          sort_into_bottom(list);
          return;
        }
        Rung& g = open_rung(lo, hi + 1, n);
        top_start_ = edge(g.start, g.nb, g.shift);
        scatter(g, list);
        continue;
      }
      Rung& g = rungs_[static_cast<std::size_t>(nrungs_ - 1)];
      if (g.live == 0) {
        --nrungs_;
        continue;
      }
      while (g.count[g.cur] == 0) ++g.cur;
      const std::size_t b = g.cur++;
      const std::uint64_t hi = edge(g.start, b + 1, g.shift);
      g.rcur = hi;
      const std::uint32_t list = g.head[b];
      const std::size_t n = g.count[b];
      g.head[b] = kNil;
      g.count[b] = 0;
      g.live -= n;
      if (n > kThres && g.shift > 0 && nrungs_ < kMaxRungs) {
        std::uint64_t mn = UINT64_MAX;
        std::uint64_t mx = 0;
        for (std::uint32_t i = list; i != kNil; i = nodes_[i].next) {
          const std::uint64_t t = time_of(nodes_[i].e.key);
          mn = std::min(mn, t);
          mx = std::max(mx, t);
        }
        if (mn != mx) {
          // The finer rung starts at the earliest entry: later pushes
          // below it belong to the bottom, which is ordered by full key.
          scatter(open_rung(mn, hi, n), list);
          continue;
        }
      }
      sort_into_bottom(list);
      return;
    }
  }

  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;

  std::uint32_t top_head_ = kNil;
  std::size_t top_n_ = 0;
  std::uint64_t top_min_ = UINT64_MAX;
  std::uint64_t top_max_ = 0;
  std::uint64_t top_start_ = 0;  // pushes at or beyond this go to top

  std::array<Rung, kMaxRungs> rungs_{};
  int nrungs_ = 0;

  std::vector<Entry> bottom_;  // sorted ascending from bhead_
  std::size_t bhead_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mns::sim
