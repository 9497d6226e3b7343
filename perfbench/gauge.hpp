// Host-speed gauge for mnsbench.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// for minutes at a time (other tenants' work on the same cores and caches).
// Host times are therefore scaled to a reference speed: between cells the
// benchmark runs a fixed unit of work that never changes with the
// simulator, and a cell's time is multiplied by kReferenceS / (the gauge's
// time around that cell).
//
// The unit is a small discrete-event simulation of its own, so that it
// meets the same contention as the simulator: a binary-heap event queue,
// a table of in-flight messages, and payload copies between 64 node
// buffers through a ring. Its 4 MB of memory overflow a core's L2 as the
// simulator's cells do, so it slows with contention for the shared cache
// as they do: from one process to the next, cell times varied 1.1x as
// much as the gauge's with 4 MB, and 1.3-1.4x as much with 0.3 or 1.6 MB.
// Its work is fixed by a constant seed, it shares no code with the
// library, and all its memory is allocated once, so its time does not
// depend on the state the cells leave the heap in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

namespace mnsbench {

class Gauge {
 public:
  /// Nominal time of one unit: scaled times are host seconds at the speed
  /// at which a unit takes this long. (Between cells on a 4-vCPU Xeon,
  /// Sapphire Rapids class, KVM guest, units took 0.8-1.6 ms.)
  static constexpr double kReferenceS = 0.8e-3;

  Gauge()
      : bufs_(kNodes * kBufBytes, 0), ring_(kRingBytes, 0), slots_(kSlots) {
    heap_.reserve(kSlots);
  }

  /// Runs one untimed unit, so the gauge's memory is back in cache, then
  /// a timed one; returns the timed unit's host seconds.
  double measure() {
    sink_ = sink_ + unit();
    const auto t0 = std::chrono::steady_clock::now();
    sink_ = sink_ + unit();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  }

 private:
  static constexpr std::uint32_t kNodes = 64;
  static constexpr std::size_t kBufBytes = 48 << 10;
  static constexpr std::size_t kRingBytes = 1 << 20;
  static constexpr std::size_t kSlots = 4096;  // power of two
  static constexpr std::size_t kMaxPayload = 1040;
  static constexpr int kEvents = 8000;

  struct Ev {
    std::uint64_t t;
    std::uint32_t node;
    std::uint32_t msg;  // 0: the node's timer
    bool operator>(const Ev& o) const { return t > o.t; }
  };
  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t len = 0;
    std::size_t off = 0;
  };

  std::uint64_t unit() {
    heap_.clear();
    const auto push = [this](Ev e) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<Ev>());
    };
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    const auto next = [&s] {
      std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return z ^ (z >> 31);
    };
    for (std::uint32_t n = 0; n < kNodes; ++n) push({next() % 1000, n, 0});
    std::uint32_t next_id = 1;
    std::size_t ring_at = 0;
    std::uint64_t sum = 0;
    for (int i = 0; i < kEvents; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Ev>());
      const Ev e = heap_.back();
      heap_.pop_back();
      std::uint8_t* buf = bufs_.data() + e.node * kBufBytes;
      const std::uint64_t r = next();
      if (e.msg != 0) {
        // Delivery: copy the payload from the ring into the receiver's buffer.
        Slot& slot = slots_[e.msg & (kSlots - 1)];
        const std::size_t off = (r & 0xffffff) % (kBufBytes - slot.len);
        std::memcpy(buf + off, ring_.data() + slot.off, slot.len);
        sum += buf[off + slot.len / 2] + (slot.id == e.msg);
        slot.id = 0;
        if (r & 0x10000) continue;  // half the deliveries send nothing
      } else {
        push({e.t + 500 + (r >> 20) % 1000, e.node, 0});
      }
      // Send: a payload of 16..1039 bytes from this node's buffer.
      const std::size_t len = 16 + ((r >> 17) & 1023);
      if (ring_at + kMaxPayload > kRingBytes) ring_at = 0;
      std::memcpy(ring_.data() + ring_at, buf + (r >> 30) % (kBufBytes - len), len);
      ring_[ring_at] ^= static_cast<std::uint8_t>(r);
      slots_[next_id & (kSlots - 1)] = {next_id, static_cast<std::uint32_t>(len), ring_at};
      ring_at += len;
      push({e.t + 100 + (r >> 54) % 5000, static_cast<std::uint32_t>((r >> 44) % kNodes),
            next_id++});
    }
    return sum + heap_.size();
  }

  std::vector<std::uint8_t> bufs_;
  std::vector<std::uint8_t> ring_;
  std::vector<Slot> slots_;
  std::vector<Ev> heap_;
  volatile std::uint64_t sink_ = 0;  // keeps the units' work observable
};

}  // namespace mnsbench
