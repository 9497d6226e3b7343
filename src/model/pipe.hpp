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
//   * Awaiter layer (`transfer`, `occupy`, `transfer_after`): reserve a
//     slot at the call and return a sim::Delay to its completion — one
//     event per stage, no coroutine frame.
//   * Reservation layer (`reserve`, `reserve_after`): the same slot
//     arithmetic without the awaiter; callers get back the absolute
//     completion time and schedule their own continuation. This is what
//     the pooled message state machines in NetFabric drive.
//
// Every packet stage reserves a slot, and the packets of one message
// share one size, so a pipe memoizes the serialization time of the last
// byte count it reserved and divides only when the size changes. The memo
// is exact: sim::transfer_time is pure and a pipe's rate never changes.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace mns::model {

/// The awaiter layer reserves its slot at the call, so co_await the
/// result at once: its delay is measured from the call, and an awaiter
/// held across other waits resumes that much past its slot.
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
  sim::Delay transfer(std::uint64_t bytes) {
    return eng_->delay(reserve(bytes) - eng_->now());
  }

  /// Reserve the pipe for a fixed duration (models a processing stall that
  /// occupies the stage, e.g. a NIC MMU walk). Keeps FIFO order with
  /// transfers.
  sim::Delay occupy(sim::Time duration) {
    return transfer_after(duration, 0);
  }

  /// Stall for `lead`, then move `bytes` — reserved as one atomic slot so
  /// no competing transfer can slip between the stall and the data.
  sim::Delay transfer_after(sim::Time lead, std::uint64_t bytes) {
    return eng_->delay(reserve_after(lead, bytes) - eng_->now());
  }

  /// Reserve the next FIFO slot for `bytes` now; returns the absolute time
  /// the transfer completes (last byte plus fixed cost).
  sim::Time reserve(std::uint64_t bytes) {
    ++transfers_;
    return take_slot(sim::Time::zero(), bytes) + fixed_cost_;
  }

  /// `transfer_after` without the awaiter: stall + data as one slot.
  /// Pure occupancy (`bytes == 0`) pays no fixed cost and does not count
  /// as a transfer, matching `occupy`.
  sim::Time reserve_after(sim::Time lead, std::uint64_t bytes) {
    if (bytes == 0) return take_slot(lead, 0);
    ++transfers_;
    return take_slot(lead, bytes) + fixed_cost_;
  }

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
    if (bytes != memo_bytes_) {
      memo_bytes_ = bytes;
      memo_ser_ = sim::transfer_time(bytes, rate_);
    }
    const sim::Time ser = lead + memo_ser_;
    busy_until_ = start + ser;
    busy_time_ += ser;
    bytes_moved_ += bytes;
    return busy_until_;
  }

  sim::Engine* eng_;
  const double rate_;
  sim::Time fixed_cost_;
  // Serialization memo: transfer_time(memo_bytes_, rate_). The initial
  // (0 bytes, 0 ps) pair is transfer_time(0, rate_).
  std::uint64_t memo_bytes_ = 0;
  sim::Time memo_ser_;
  sim::Time busy_until_;
  sim::Time busy_time_;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t transfers_ = 0;
};

}  // namespace mns::model
