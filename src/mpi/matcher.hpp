// Per-rank receive matching: posted-receive queue + unexpected-message
// queue, with MPI's non-overtaking semantics (the fabrics deliver in post
// order per (src,dst) pair, and both queues here are matched in FIFO
// order, so matching is standard-conformant).
//
// Hot-path layout: both queues are hashed into per-(src, tag) buckets so
// the common fully-specified lookup is O(1) instead of a linear scan of
// every outstanding receive (the scan dominated matching cost in dense
// alltoall/stress traffic, where one rank holds hundreds of posted
// receives across many peers). FIFO order is preserved by stamping every
// entry with a global arrival sequence number:
//
//   * Fully-specified posted receives live in their (src, tag) bucket;
//     receives naming kAnySource or kAnyTag go to a wildcard side-list.
//     An arrival considers the head of its exact bucket (FIFO => minimal
//     seq in that bucket) and the first matching wildcard entry, and takes
//     whichever was posted earlier — exactly the order a single linear
//     queue would have produced.
//   * Unexpected messages always carry a concrete (src, tag), so they
//     bucket perfectly; a wildcard receive resolves by taking the oldest
//     head among matching buckets.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/annotations.hpp"

namespace mns::mpi {

/// A receive the application has posted and the device must fill. The
/// device completes `req` exactly once (see RequestState).
struct PostedRecv {
  Rank want_src = kAnySource;
  Tag want_tag = kAnyTag;
  View buf;
  RequestState* req = nullptr;
};

/// The device continuation of an unexpected message, run (in the
/// receiving rank's context) when a receive finally matches: it copies
/// buffered payload out, or kicks the rendezvous CTS, and ultimately
/// completes the request, then runs `done` — at once, or from the event
/// that ends its host work. It keeps the PostedRecv and `done` in its own
/// pooled record, so nothing outlives the call but that record. Like
/// sim::EventFn's inline form it holds a callable of at most two
/// trivially copyable words, so queueing one never allocates.
class ClaimFn {
 public:
  ClaimFn() = default;
  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, ClaimFn> &&
             std::is_invocable_r_v<void, F&, PostedRecv, sim::Cont>)
  ClaimFn(F f) noexcept : call_(&thunk<F>) {
    static_assert(std::is_trivially_copyable_v<F> &&
                      sizeof(F) <= sizeof(words_) &&
                      alignof(F) <= alignof(void*),
                  "a claim captures at most two trivially copyable words");
    std::memcpy(words_, std::addressof(f), sizeof(F));
  }

  explicit operator bool() const noexcept { return call_ != nullptr; }
  void operator()(PostedRecv pr, sim::Cont done) {
    call_(words_, std::move(pr), done);
  }

 private:
  template <class F>
  static void thunk(void* words, PostedRecv pr, sim::Cont done) {
    (*std::launder(reinterpret_cast<F*>(words)))(std::move(pr), done);
  }

  alignas(void*) unsigned char words_[2 * sizeof(void*)] = {};
  void (*call_)(void*, PostedRecv, sim::Cont) = nullptr;
};

/// A message that arrived before a matching receive was posted.
struct Unexpected {
  Envelope env;
  ClaimFn claim;
};

class Matcher {
 public:
  /// Device side: an envelope arrived; returns the matching posted
  /// receive, or nothing, after which queueing must be handled by the
  /// caller. MNS_HOT: spare_posted_ grows only to the peak number of live
  /// (src, tag) buckets.
  MNS_HOT std::optional<PostedRecv> match_arrival(const Envelope& env) {
    auto bucket = posted_.find(key(env.src, env.tag));
    const bool exact = bucket != posted_.end();
    std::size_t wild = 0;
    for (; wild < posted_wild_.size(); ++wild) {
      const PostedRecv& w = posted_wild_[wild].item;
      if (matches(w.want_src, w.want_tag, env)) break;
    }
    const bool any = wild < posted_wild_.size();
    if (!exact && !any) return std::nullopt;
    --posted_count_;
    // Earliest posted wins; within each container FIFO order is seq order.
    if (exact &&
        (!any || bucket->second.front().seq < posted_wild_[wild].seq)) {
      PostedRecv out = bucket->second.pop_front().item;
      if (bucket->second.empty()) {
        spare_posted_.push_back(posted_.extract(bucket));
      }
      return out;
    }
    PostedRecv out = std::move(posted_wild_[wild].item);
    posted_wild_.erase(wild);
    return out;
  }

  /// MNS_HOT: bucket storage is recycled through spare_unexpected_; the
  /// map and its buckets grow only with the number of live (src, tag)
  /// pairs.
  MNS_HOT void add_unexpected(Unexpected u) {
    const std::uint64_t k = key(u.env.src, u.env.tag);
    auto it = unexpected_.find(k);
    if (it == unexpected_.end()) {
      if (!spare_unexpected_.empty()) {
        auto node = std::move(spare_unexpected_.back());
        spare_unexpected_.pop_back();
        node.key() = k;
        it = unexpected_.insert(std::move(node)).position;
      } else {
        it = unexpected_.try_emplace(k).first;
      }
    }
    it->second.push_back({next_seq_++, std::move(u)});
    ++unexpected_count_;
  }

  /// Application side: try to satisfy a new receive from the unexpected
  /// queue; otherwise the caller posts it. MNS_HOT: spare_unexpected_
  /// grows only to the peak number of live (src, tag) buckets.
  MNS_HOT std::optional<Unexpected> match_posted(Rank src, Tag tag) {
    const auto bucket = find_unexpected(src, tag);
    if (bucket == unexpected_.end()) return std::nullopt;
    Unexpected out = bucket->second.pop_front().item;
    --unexpected_count_;
    if (bucket->second.empty()) {
      spare_unexpected_.push_back(unexpected_.extract(bucket));
    }
    return out;
  }

  /// MNS_HOT: like add_unexpected, bucket storage is recycled through
  /// spare_posted_.
  MNS_HOT void post(PostedRecv r) {
    if (r.want_src == kAnySource || r.want_tag == kAnyTag) {
      posted_wild_.push_back({next_seq_++, std::move(r)});
    } else {
      const std::uint64_t k = key(r.want_src, r.want_tag);
      auto it = posted_.find(k);
      if (it == posted_.end()) {
        if (!spare_posted_.empty()) {
          auto node = std::move(spare_posted_.back());
          spare_posted_.pop_back();
          node.key() = k;
          it = posted_.insert(std::move(node)).position;
        } else {
          it = posted_.try_emplace(k).first;
        }
      }
      it->second.push_back({next_seq_++, std::move(r)});
    }
    ++posted_count_;
  }

  /// Probe support: find a matching unexpected message without claiming
  /// it. Returns nullptr when none has arrived yet.
  const Unexpected* peek_unexpected(Rank src, Tag tag) const {
    auto& self = const_cast<Matcher&>(*this);
    const auto bucket = self.find_unexpected(src, tag);
    return bucket != self.unexpected_.end() ? &bucket->second.front().item
                                            : nullptr;
  }

  std::size_t posted_count() const { return posted_count_; }
  std::size_t unexpected_count() const { return unexpected_count_; }

 private:
  template <typename T>
  struct Entry {
    std::uint64_t seq;
    T item;
  };
  // A bucket is a FIFO whose vector keeps its capacity; an emptied bucket
  // leaves its map as a node handle (spare_*) and is re-keyed for the
  // next (src, tag) pair, so steady-state matching never allocates.
  template <typename T>
  using Bucket = sim::Fifo<Entry<T>>;
  using PostedMap = std::unordered_map<std::uint64_t, Bucket<PostedRecv>>;
  // Ordered map: find_unexpected's wildcard scan iterates this container,
  // and while its min-by-seq selection is order-insensitive, keeping the
  // visit order keyed on (src, tag) instead of host hashing makes the
  // determinism structural.
  using UnexpectedMap = std::map<std::uint64_t, Bucket<Unexpected>>;

  static std::uint64_t key(Rank src, Tag tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// The unexpected bucket a receive for (src, tag) should drain from:
  /// its exact bucket, or — for wildcard receives — the matching bucket
  /// whose head arrived first. Emptied buckets leave the map, so the
  /// wildcard scan touches only live (src, tag) pairs.
  UnexpectedMap::iterator find_unexpected(Rank src, Tag tag) {
    if (src != kAnySource && tag != kAnyTag) {
      return unexpected_.find(key(src, tag));
    }
    auto best = unexpected_.end();
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(src, tag, it->second.front().item.env)) continue;
      if (best == unexpected_.end() ||
          it->second.front().seq < best->second.front().seq) {
        best = it;
      }
    }
    return best;
  }

  PostedMap posted_;
  Bucket<PostedRecv> posted_wild_;  // receives naming kAnySource/kAnyTag
  std::vector<PostedMap::node_type> spare_posted_;
  UnexpectedMap unexpected_;
  std::vector<UnexpectedMap::node_type> spare_unexpected_;
  std::uint64_t next_seq_ = 0;
  std::size_t posted_count_ = 0;
  std::size_t unexpected_count_ = 0;
};

}  // namespace mns::mpi
