// Intra-node shared-memory messaging.
//
// When two ranks share a node, MPI implementations short-circuit the NIC
// with a shared-memory segment: the sender copies into a ring buffer, the
// receiver polls and copies out. Both copies run on host CPUs at memcpy
// speed, which is why large-message shared-memory bandwidth *drops* when
// buffers stop fitting in cache (paper Fig. 10) — the fabric DMA engines
// never suffer that cliff.
//
// The domain models timing and ordering; payload movement and CPU-time
// charging are done by the MPI ch_smp device (copies burn the caller's
// simulated CPU, unlike NIC DMA).
#pragma once

#include <cstdint>

#include "model/memcpy_model.hpp"
#include "sim/engine.hpp"

namespace mns::shm {

struct ShmConfig {
  sim::Time post_cost;         // enqueue descriptor + flag write
  sim::Time poll_cost;         // receiver poll + dequeue
  sim::Time visibility_delay;  // coherence propagation to the other CPU
  model::MemcpyConfig copy;    // the two memcpy halves
};

struct ShmMsg {
  int src_rank = 0;
  int dst_rank = 0;
  std::uint64_t bytes = 0;
  sim::EventFn remote_arrival;  // data visible to the receiver
};

/// One per node. `send_copy` is awaited by the *sender* (its CPU does the
/// copy-in); the receiver's copy-out cost is exposed via `copy_time` and
/// charged by the device when the message is matched.
class ShmDomain {
 public:
  ShmDomain(sim::Engine& eng, const ShmConfig& cfg)
      : eng_(&eng), cfg_(cfg), copier_(cfg.copy) {}

  /// Sender-side: descriptor post + copy-in. On return the sender may
  /// reuse its buffer; `remote_arrival` fires after the visibility delay.
  sim::Task<void> send_copy(ShmMsg msg) {
    co_await eng_->delay(cfg_.post_cost + copier_.copy_time(msg.bytes));
    ++messages_;
    bytes_ += msg.bytes;
    if (msg.remote_arrival) {
      eng_->after(cfg_.visibility_delay, std::move(msg.remote_arrival));
    }
  }

  /// Receiver-side copy-out cost for `bytes` (plus the poll).
  sim::Time recv_cost(std::uint64_t bytes) const {
    return cfg_.poll_cost + copier_.copy_time(bytes);
  }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t bytes_moved() const { return bytes_; }
  const ShmConfig& config() const { return cfg_; }

 private:
  sim::Engine* eng_;
  ShmConfig cfg_;
  model::MemcpyModel copier_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace mns::shm
