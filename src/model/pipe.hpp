// Pipe: a FIFO serializing resource with a fixed byte rate.
//
// This is the basic building block for every bandwidth-limited stage in the
// machine model: a network link direction, a PCI/PCI-X bus, a NIC DMA
// engine, a switch output port. A transfer reserves the next free slot on
// the pipe (requests at the same timestamp are served in call order, so
// behaviour is deterministic) and completes when its last byte has passed.
//
// Two layers of API:
//
//   * Coroutine layer (`transfer`, `occupy`, `transfer_after`): reserve a
//     slot and co_await its completion — one event per stage.
//   * Reservation layer (`reserve`, `reserve_after`): the same slot
//     arithmetic without the coroutine; callers get back the absolute
//     completion time and schedule their own continuation. This is what
//     the pooled message state machines in NetFabric drive.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mns::model {

class Pipe {
 public:
  /// `bytes_per_second`: effective data rate of this stage.
  /// `fixed_cost`: per-transfer latency added after serialization
  /// (propagation delay, arbitration, etc).
  Pipe(sim::Engine& eng, double bytes_per_second,
       sim::Time fixed_cost = sim::Time::zero())
      : eng_(&eng), rate_(bytes_per_second), fixed_cost_(fixed_cost) {}

  /// Move `bytes` through the pipe; resumes when the last byte (plus the
  /// fixed cost) has cleared. Zero-byte transfers still pay the fixed cost.
  sim::Task<void> transfer(std::uint64_t bytes) {
    co_await eng_->delay(reserve(bytes) - eng_->now());
  }

  /// Reserve the pipe for a fixed duration (models a processing stall that
  /// occupies the stage, e.g. a NIC MMU walk). Keeps FIFO order with
  /// transfers.
  sim::Task<void> occupy(sim::Time duration) {
    return transfer_after(duration, 0);
  }

  /// Stall for `lead`, then move `bytes` — reserved as one atomic slot so
  /// no competing transfer can slip between the stall and the data.
  sim::Task<void> transfer_after(sim::Time lead, std::uint64_t bytes) {
    co_await eng_->delay(reserve_after(lead, bytes) - eng_->now());
  }

  /// Reserve the next FIFO slot for `bytes` now; returns the absolute time
  /// the transfer completes (last byte plus fixed cost).
  sim::Time reserve(std::uint64_t bytes) {
    ++transfers_;
    return take_slot(sim::Time::zero(), bytes) + fixed_cost_;
  }

  /// `transfer_after` without the coroutine: stall + data as one slot.
  /// Pure occupancy (`bytes == 0`) pays no fixed cost and does not count
  /// as a transfer, matching `occupy`.
  sim::Time reserve_after(sim::Time lead, std::uint64_t bytes) {
    if (bytes == 0) return take_slot(lead, 0);
    ++transfers_;
    return take_slot(lead, bytes) + fixed_cost_;
  }

  /// The serialization time alone for `bytes` (no queueing, no fixed cost).
  sim::Time serialization_time(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, rate_);
  }

  /// Earliest time a new transfer could start.
  sim::Time free_at() const { return busy_until_; }
  bool idle() const { return busy_until_ <= eng_->now(); }

  double rate() const { return rate_; }
  sim::Time fixed_cost() const { return fixed_cost_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }
  std::uint64_t transfers() const { return transfers_; }
  sim::Time busy_time() const { return busy_time_; }

 private:
  /// Occupy the next FIFO slot for `lead` plus the serialization of
  /// `bytes`; returns the instant the slot ends.
  sim::Time take_slot(sim::Time lead, std::uint64_t bytes) {
    const sim::Time now = eng_->now();
    const sim::Time start = busy_until_ > now ? busy_until_ : now;
    const sim::Time ser = lead + sim::transfer_time(bytes, rate_);
    busy_until_ = start + ser;
    busy_time_ += ser;
    bytes_moved_ += bytes;
    return busy_until_;
  }

  sim::Engine* eng_;
  double rate_;
  sim::Time fixed_cost_;
  sim::Time busy_until_;
  sim::Time busy_time_;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t transfers_ = 0;
};

}  // namespace mns::model
