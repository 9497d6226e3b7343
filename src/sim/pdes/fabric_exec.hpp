// The conservative PDES executor: the one runtime behind both
// pdes::run() and cluster::Cluster's `--partitions` execution.
//
// FabricExecutor borrows a fixed vector of Engines, one per partition,
// for its whole lifetime (the caller owns them: Cluster's pipes, NIC
// state, MPI procs and their coroutine frames all hang off its engines
// and outlive any single round), and executes them to global quiescence
// once per run_round() call. It
//   - keeps one persistent worker thread per partition > 0 (partition 0
//     always executes on the caller), started by the first round and
//     parked between rounds, so coroutine frames created while executing
//     partition p's events always allocate and free on the same thread's
//     frame pool;
//   - at partitions == 1 creates no thread and runs the caller's engine
//     through the same event/delivery loop, minus the safe-time scan and
//     channel drain, which have nothing to synchronize;
//   - carries a small payload (three words + an optional boxed
//     descriptor) per message: the fabric's split-flow protocol ships a
//     flow descriptor once per message and per-packet words afterwards;
//     pdes::run() uses one word.
//
// The synchronization protocol — barrier-free LBTS with the
// evidence-removal seqlock, heap-merged (when, src node, send idx)
// delivery batches, counting termination — and its correctness argument
// live in fabric_exec.cpp. The merge key is partition-invariant because
// every component is a pure function of the sending node's deterministic
// history.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pdes/pdes.hpp"
#include "sim/time.hpp"

namespace mns::sim::pdes {

/// One timestamped cross-partition fabric message. (when_ps, src_node,
/// send_idx) is the deterministic merge key; a/b/c are protocol words
/// interpreted by the destination handler; `box` optionally carries a
/// heap descriptor whose ownership passes to the handler (undelivered
/// boxes are freed through the registered deleter).
struct WireMsg {
  std::int64_t when_ps = 0;
  std::int32_t src_node = 0;
  std::int32_t dst_node = 0;
  std::uint64_t send_idx = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  void* box = nullptr;
};

/// Invoked on the destination node's owning partition, at the message
/// timestamp, in deterministic (when, src node, send idx) order.
using WireHandler = std::function<void(const WireMsg&)>;

/// Frees an undelivered WireMsg::box. A plain function pointer, so a
/// queued delivery can carry its own copy and free its boxes even after
/// the executor is gone (an aborted round leaves carriers in the engines,
/// which the owner destroys later).
using BoxDeleter = void (*)(void*);

class FabricExecutor {
 public:
  /// Per-partition synchronization counters, exposed so the finalize
  /// audit can surface a skewed partition plan instead of hiding it:
  /// `events` is the engine's cumulative processed-event count,
  /// `sent`/`received` count channel messages by the owning side,
  /// `batches` the carrier events injected to deliver them, and
  /// `lbts_rounds` the safe-time scans the partition ran.
  struct PartStats {
    std::uint64_t events = 0;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t batches = 0;
    std::uint64_t lbts_rounds = 0;
  };

  /// `engines[p]` is partition p's engine; the executor borrows them
  /// (the caller owns engine lifetime). The first round starts
  /// partitions-1 worker threads, which park between rounds and live
  /// until destruction.
  FabricExecutor(Topology topo, std::vector<Engine*> engines);
  ~FabricExecutor();
  FabricExecutor(const FabricExecutor&) = delete;
  FabricExecutor& operator=(const FabricExecutor&) = delete;

  /// Register `node`'s handler: before the first round, or during a
  /// round's setup by the partition that owns `node` (each entry is then
  /// written and read by that partition's thread only).
  void set_handler(int node, WireHandler h);

  /// Deleter for WireMsg::box, used only for messages that are never
  /// dispatched (abort paths); delivered boxes belong to handlers.
  void set_box_deleter(BoxDeleter d) { box_deleter_ = d; }

  /// Timestamped message from src_node (must be called on its owning
  /// partition's thread) to dst_node's handler at absolute time `when`.
  /// Requires when >= src partition's now + lookahead, intra-partition
  /// sends included, so workload legality never depends on the layout.
  void send(int src_node, int dst_node, Time when, std::uint64_t a,
            std::uint64_t b = 0, std::uint64_t c = 0, void* box = nullptr);

  /// One synchronized round: `setup(p)` runs on partition p's thread
  /// first (partition 0 inline on the caller), then all partitions
  /// execute events and channel deliveries to global quiescence.
  /// Throws the lowest-partition failure after every thread has parked.
  void run_round(const std::function<void(int)>& setup);

  /// Counters of every partition (consistent between rounds).
  std::vector<PartStats> part_stats() const;
  const Topology& topology() const { return topo_; }
  int partitions() const { return topo_.partitions; }

 private:
  // The atomics every scan reads sit alone on their cache lines, apart
  // from the state their owners write on every send, delivery and event.
  struct Channel {
    // Minimum timestamp buffered in-flight (INT64_MAX when empty): the
    // scan reads it so a message between "pushed" and "drained" is never
    // invisible.
    alignas(64) std::atomic<std::int64_t> min_when{INT64_MAX};
    alignas(64) std::mutex mu;
    std::vector<WireMsg> buf;
  };
  struct Part {
    // Earliest unprocessed event, local or pending (INT64_MAX when
    // drained). Written by the owner only; read by every scan.
    alignas(64) std::atomic<std::int64_t> known{0};
    alignas(64) std::vector<WireMsg> pending;  // min-heap by (when, src, idx)
    PartStats stats;                           // owner-thread only
  };

  Channel& channel(int from, int to) {
    return *chan_[static_cast<std::size_t>(from) *
                      static_cast<std::size_t>(topo_.partitions) +
                  static_cast<std::size_t>(to)];
  }
  void thread_main(int p);
  void round(int p);
  void loop(int p, Engine& eng);
  void drain(int p, bool& is_idle);
  struct Batch;  // one delivery carrier (fabric_exec.cpp)
  void deliver_batch(Part& mine, Engine& eng, std::int64_t t);
  void dispatch(const WireMsg& m);
  template <typename Store>
  void remove_evidence(Store&& store) {
    std::lock_guard<std::mutex> g(gen_mu_);
    gen_.fetch_add(1, std::memory_order_seq_cst);
    store();
    gen_.fetch_add(1, std::memory_order_seq_cst);
  }

  const Topology topo_;
  std::vector<Engine*> engines_;
  std::vector<std::unique_ptr<Part>> parts_;
  std::vector<std::unique_ptr<Channel>> chan_;  // [from * K + to]
  std::vector<WireHandler> handlers_;           // per node
  std::vector<std::uint64_t> send_idx_;         // per node, owner-thread
  BoxDeleter box_deleter_ = nullptr;

  // Evidence-removal seqlock (see remove_evidence's callers).
  alignas(64) std::atomic<std::uint64_t> gen_{0};
  std::mutex gen_mu_;

  // Termination protocol state, reset per round. The flags every loop
  // iteration polls live apart from the counters every cross-partition
  // send and drain bumps.
  alignas(64) std::atomic<bool> done_{false};
  std::atomic<bool> abort_{false};
  alignas(64) std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
  alignas(64) std::mutex term_mu_;
  std::vector<bool> idle_;
  std::vector<std::exception_ptr> errors_;

  // Round/parking protocol: workers wait for round_gen_ to advance (or
  // quit_), run one round, then report through done_workers_.
  std::mutex round_mu_;
  std::condition_variable round_cv_;
  std::condition_variable park_cv_;
  std::uint64_t round_gen_ = 0;
  int done_workers_ = 0;
  bool quit_ = false;
  const std::function<void(int)>* setup_ = nullptr;
  std::vector<std::thread> pool_;
};

}  // namespace mns::sim::pdes
