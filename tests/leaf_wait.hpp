// Shared by the leaf-wait tests of the sim, model and MPI layers.
//
// A leaf wait (Cpu::compute/busy, Pipe::transfer/occupy/transfer_after,
// HostBus::dma, Request::await_done, Comm::wait/compute) is a plain
// awaiter: awaiting it schedules the caller's own resume at the reserved
// instant and allocates no coroutine frame.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/task.hpp"

namespace mns::test_support {

struct LeafWait {
  sim::Time resumed;
  std::uint64_t frames = UINT64_MAX;  // frames allocated across the wait
};

/// Run one process that pauses until `start`, makes the leaf wait
/// `wait()` there and awaits it; report when the caller resumed and how
/// many coroutine frames the call and the await allocated.
template <class Wait>
LeafWait run_leaf_wait(sim::Engine& eng, sim::Time start, Wait wait) {
  LeafWait out;
  eng.spawn([](sim::Engine& e, sim::Time start, Wait wait,
               LeafWait& out) -> sim::Task<> {
    co_await e.delay(start);
    const std::uint64_t before = sim::frame_pool::stats().allocated;
    co_await wait();
    out.frames = sim::frame_pool::stats().allocated - before;
    out.resumed = e.now();
  }(eng, start, std::move(wait), out));
  eng.run();
  return out;
}

}  // namespace mns::test_support
