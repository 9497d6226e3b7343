// ADI-style device interface.
//
// Mirrors MPICH's layering: the public MPI API (Comm) sits on an abstract
// device; each interconnect provides one. All host-side initiation work is
// coroutine-shaped so it charges the calling rank's simulated CPU;
// completion flows back through RequestState.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/task.hpp"

namespace mns::mpi {

struct SendOp {
  Envelope env;
  View buf;
  /// MPI_Ssend semantics: complete only after the receiver matched.
  bool synchronous = false;
  /// Completed exactly once by the device (see RequestState).
  RequestState* req = nullptr;
};

class Device {
 public:
  virtual ~Device() = default;

  /// Initiate a send from the sender rank's coroutine. Returns once the
  /// send is locally initiated (eager handed to the NIC / rendezvous RTS
  /// posted); op.req completes when MPI semantics allow buffer reuse.
  virtual sim::Task<void> start_send(SendOp op) = 0;

  /// Host cost of posting a receive (beyond matching).
  virtual sim::Time recv_post_cost() const { return sim::Time::zero(); }

  /// Which small-message allreduce the era's MPICH base used: recursive
  /// doubling arrived with MPICH 1.2.5 (MPICH-GM); older bases (MVAPICH's
  /// 1.2.2) composed reduce + bcast — the reason the paper's Fig. 12 shows
  /// InfiniBand losing allreduce despite winning raw latency.
  virtual bool allreduce_recursive_doubling() const { return false; }

  /// Elan-style hardware collective support.
  virtual bool has_hw_broadcast() const { return false; }
  /// Fire-and-callback hardware broadcast of `bytes` from `root`'s node to
  /// every node; devices without support must not be asked.
  virtual void hw_broadcast(Rank /*root*/, std::uint64_t /*bytes*/,
                            std::uint64_t /*addr*/,
                            std::function<void()> /*done*/) {
    throw std::logic_error("device has no hardware broadcast");
  }

  /// MPI library memory footprint on `node` (paper Fig. 13).
  virtual std::uint64_t memory_bytes(int node) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace mns::mpi
