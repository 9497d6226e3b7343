// Per-rank process state: simulated CPU, matcher, deferred protocol work.
//
// The deferred queue is the heart of the paper's overlap story. When a
// message/handshake event arrives for a rank whose host is *computing*
// (outside MPI), implementations without NIC-side protocol engines cannot
// react until the application re-enters the library. Devices call
// `host_action`: it runs the action immediately if the rank is inside an
// MPI call (including blocked in a wait, where the host spins on
// completion), and defers it to the next MPI entry otherwise.
#pragma once

#include "model/pipe.hpp"
#include "mpi/matcher.hpp"
#include "mpi/request.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/annotations.hpp"

namespace mns::mpi {

class Proc {
 public:
  Proc(sim::Engine& eng, Rank rank, int node, int slot)
      : eng_(&eng), cpu_(eng), host_work_(eng, 1e12), requests_(eng),
        rank_(rank), node_(node), slot_(slot) {}

  /// The engine this rank's node lives on (its partition's engine under
  /// PDES execution; the cluster engine otherwise). Event-context work
  /// for this rank must be spawned here.
  sim::Engine& engine() { return *eng_; }
  sim::Cpu& cpu() { return cpu_; }
  /// Serializes event-context host work (message delivery processing):
  /// the rank has ONE CPU, so concurrent arrivals queue — this is what
  /// makes incast patterns (alltoall fan-in) expensive.
  model::Pipe& host_work() { return host_work_; }
  /// Occupy the host-work pipe for `cost` from now and run `fn` as an
  /// event when that slot ends: a device continuation without a frame.
  void after_host_work(sim::Time cost, sim::EventFn fn) {
    eng_->at(host_work_.reserve_after(cost, 0), std::move(fn));
  }
  Matcher& matcher() { return matcher_; }
  /// This rank's request states (touched only on the rank's partition).
  RequestPool& requests() { return requests_; }
  Rank rank() const { return rank_; }
  int node() const { return node_; }
  int slot() const { return slot_; }  // position within the node (SMP)

  /// Run `fn` now if the host is attentive (inside MPI), else defer it to
  /// the next MPI entry. MNS_HOT: the deferred FIFO keeps its capacity.
  MNS_HOT void host_action(sim::EventFn fn) {
    if (cpu_.in_mpi()) {
      fn.invoke();
    } else {
      deferred_.push_back(std::move(fn));
    }
  }

  /// Called on every MPI entry: run everything that piled up while the
  /// application was computing.
  void drain_deferred() {
    while (!deferred_.empty()) deferred_.pop_front().invoke();
  }

  std::size_t deferred_pending() const { return deferred_.size(); }

 private:
  sim::Engine* eng_;
  sim::Cpu cpu_;
  model::Pipe host_work_;
  Matcher matcher_;
  RequestPool requests_;
  Rank rank_;
  int node_;
  int slot_;
  sim::Fifo<sim::EventFn> deferred_;
};

}  // namespace mns::mpi
