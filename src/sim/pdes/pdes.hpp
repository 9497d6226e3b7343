// Conservative parallel discrete-event simulation (PDES) core.
//
// Partitions a node graph across worker threads, each partition owning a
// private Engine, with timestamped cross-partition messages and a
// barrier-free safe-time (LBTS) computation. The contract mirrors
// SweepRunner's `--jobs` invariance, but *inside* one run: observable
// results are bit-identical for any partition count, including
// partitions == 1, which executes inline on the caller with no threads
// at all.
//
// run() is a one-round driver over FabricExecutor (fabric_exec.hpp), the
// runtime cluster::Cluster's `--partitions` execution uses too; the
// safe-time protocol, its seqlock and the termination argument are
// documented once, in fabric_exec.cpp.
//
// # Model
//
// The workload is a set of `nodes` logical nodes. Each node's event
// handlers may touch only that node's state; nodes interact exclusively
// through Context::send(src, dst, when, word), a timestamped message
// that invokes dst's registered handler (Context::on_message) on dst's
// partition at absolute time `when`. Sends must
// respect the topology's lookahead: when >= now + lookahead, the minimum
// link latency of the modelled network — physics every fabric in this
// simulator already obeys (a packet cannot arrive before one wire
// latency). That slack is exactly what lets a partition execute ahead
// without waiting for its peers event-by-event.
//
// # Determinism (the merge rule)
//
// Deliveries for time t are injected into the destination engine at the
// moment no earlier event remains, sorted by (when, src node, per-source
// send index) — every component of that key is a pure function of the
// sending node's deterministic history, never of the partition layout.
// Same-time deliveries then execute as one batch event (single heap
// entry; engine seqs of a drained group are contiguous, so batching
// cannot reorder them against anything). Locally-scheduled events keep
// the engine's (time, seq) order. Node observables are recorded through
// Context::emit into per-node streams merged by (time, node, per-node
// index). Every key above is partition-invariant, so the merged stream —
// and anything derived from it — is bit-identical from K=1 to K=nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace mns::sim::pdes {

/// Static description of the partitioned world: which partition owns
/// each node, and the lookahead floor every send must respect.
struct Topology {
  int nodes = 0;
  int partitions = 1;
  std::vector<int> part_of;  // node -> owning partition, size() == nodes
  // Minimum cross-node latency: every send must satisfy
  // when >= now + lookahead. Must be > 0 — zero lookahead admits no
  // conservative window (and no physical link is instantaneous).
  Time lookahead;

  /// Contiguous block partitioning (node i -> partition i*K/nodes), the
  /// layout matching the cluster's block rank placement.
  static Topology blocks(int nodes, int partitions, Time lookahead);

  /// Throws std::invalid_argument on structural errors (no nodes, bad
  /// partition ids, non-positive lookahead, empty partition).
  void validate() const;
};

class FabricExecutor;

/// One deterministic observable record: node `node`'s `idx`-th emission,
/// stamped with the simulated time it was recorded.
struct Emission {
  std::int64_t at_ps = 0;
  std::int32_t node = 0;
  std::uint32_t pad_ = 0;  // explicit padding: Emission is hashed bytewise
  std::uint64_t idx = 0;
  std::uint64_t word = 0;

  friend bool operator==(const Emission&, const Emission&) = default;
};

/// Merged run result. `emissions` is the deterministic observable stream
/// (sorted by (at_ps, node, idx)); the counters are aggregates over all
/// partitions. `events` counts workload-scheduled engine events only —
/// the carrier events injected to deliver message batches are excluded,
/// because batch grouping is layout-dependent (same-instant messages to
/// nodes in different partitions fuse into one batch at K=1 but several
/// at K>1). Every counter is partition-invariant except
/// `delivery_batches`, which counts exactly those carriers and measures
/// scheduling efficiency, not simulated behaviour.
struct Result {
  std::vector<Emission> emissions;
  std::int64_t end_ps = 0;          // max partition clock at drain
  std::uint64_t events = 0;         // workload events processed, summed
                                    // (delivery-batch carriers excluded)
  std::uint64_t messages = 0;       // channel messages delivered
  std::uint64_t delivery_batches = 0;  // batch events carrying them

  /// FNV-1a over the emission stream + end time: the digest the
  /// partition-invariance tests compare.
  std::uint64_t digest() const;
};

class Context;

/// Per-node message handler: invoked on the node's owning partition, at
/// the message's timestamp, in deterministic (time, src node, per-source
/// send index) order. The Context passed in is the *destination*
/// partition's — handlers never see (and so can never touch) sender-side
/// state, which is what keeps partitioned execution race-free by
/// construction.
using MsgHandler =
    std::function<void(Context&, int node, std::uint64_t word)>;

/// Workload builder: invoked once per partition, on that partition's
/// worker thread (inline on the caller for partitions == 1 — code must
/// not depend on which; for K > 1 invocations run concurrently, so the
/// callable must be safe to call from several threads at once). Spawns
/// processes / schedules events / registers handlers for the partition's
/// own nodes only.
using Build = std::function<void(Context&)>;

/// Per-partition handle passed to the workload builder. Lives for the
/// whole run; all methods are owner-thread-only (the partition's worker).
class Context {
 public:
  Engine& engine() noexcept { return *eng_; }
  int partition() const noexcept { return part_; }
  /// Nodes owned by this partition, ascending.
  const std::vector<int>& nodes() const noexcept { return owned_; }
  Time now() const noexcept { return eng_->now(); }

  /// Record one word of node-observable output (a completion, a verdict,
  /// a counter sample). Streams are merged deterministically across
  /// partitions; this is what the bit-identity contract is stated over.
  void emit(int node, std::uint64_t word);

  /// Register `node`'s message handler (build time; owned nodes only).
  void on_message(int node, MsgHandler h);

  /// Timestamped message: deliver `word` to dst's handler at absolute
  /// time `when`. Requires when >= now + lookahead for every (src, dst)
  /// pair — also intra-partition ones, so the legality of a workload
  /// never depends on the layout.
  void send(int src_node, int dst_node, Time when, std::uint64_t word);

 private:
  friend Result run(const Topology& topo, const Build& build,
                    std::uint64_t event_limit);
  FabricExecutor* exec_ = nullptr;
  Engine* eng_ = nullptr;
  int part_ = 0;
  std::vector<int> owned_;
  // Owner-thread bookkeeping, merged by run() after the round.
  std::vector<std::uint64_t>* emit_idx_ = nullptr;  // per node, shared
  std::vector<Emission> emissions_;
  std::uint64_t messages_ = 0;
};

/// Run `build` over `topo` to completion and merge the observable
/// streams. Throws the lowest-partition failure (process exceptions,
/// DeadlockError for stuck non-daemon processes, EventLimitError when a
/// partition exceeds `event_limit`).
Result run(const Topology& topo, const Build& build,
           std::uint64_t event_limit = UINT64_MAX);

}  // namespace mns::sim::pdes
