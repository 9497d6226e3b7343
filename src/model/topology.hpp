// Switch topologies.
//
// The paper's testbeds fit behind single crossbars (8-port InfiniScale /
// Myrinet-2000 / 16-port Elite). To project beyond that — the scalability
// question the paper's conclusion raises — we also model a two-level
// fat tree: leaf crossbars of a given radix, fully connected to a spine
// stage. Inter-leaf traffic crosses a shared per-leaf uplink and the
// spine, so hot-spot and all-to-all patterns contend where a single
// crossbar would not.
//
// A topology exposes its path as an ordered list of hop pipes (`hops`) so
// the fabric's pooled message state machines can reserve each stage
// without a coroutine; `route` is the coroutine convenience over the same
// hop list, used by the broadcast path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/switch.hpp"
#include "sim/task.hpp"

namespace mns::model {

class SwitchTopology {
 public:
  /// Upper bound on switching-stage hops in any topology (fat tree:
  /// uplink, spine port, leaf port).
  static constexpr int kMaxHops = 3;

  virtual ~SwitchTopology() = default;

  /// Fill `out` with the switching-stage pipes a packet from `src` to
  /// `dst` crosses, in traversal order; returns the hop count (<=
  /// kMaxHops). The list depends only on (src, dst) — topologies route
  /// deterministically — so callers may reserve the hops stage by stage.
  virtual int hops(int src, int dst, Pipe* out[kMaxHops]) = 0;

  virtual const char* name() const = 0;

  /// Move one packet from `src` node's link to `dst` node's link through
  /// the switching stage(s).
  sim::Task<void> route(int src, int dst, std::uint64_t bytes) {
    Pipe* hop[kMaxHops];
    const int n = hops(src, dst, hop);
    for (int i = 0; i < n; ++i) co_await hop[i]->transfer(bytes);
  }
};

/// Every node on one full crossbar (the paper's configuration).
class SingleCrossbar final : public SwitchTopology {
 public:
  SingleCrossbar(sim::Engine& eng, const SwitchConfig& cfg)
      : sw_(eng, cfg) {}
  /// Partitioned: port i on node i's owning engine (see CrossbarSwitch).
  SingleCrossbar(sim::Engine& eng, const std::vector<sim::Engine*>& port_eng,
                 const SwitchConfig& cfg)
      : sw_(eng, port_eng, cfg) {}

  int hops(int /*src*/, int dst, Pipe* out[kMaxHops]) override {
    out[0] = &sw_.port(static_cast<std::size_t>(dst));
    return 1;
  }
  const char* name() const override { return "crossbar"; }

 private:
  CrossbarSwitch sw_;
};

/// Two-level fat tree: nodes in groups of `leaf_radix` behind leaf
/// crossbars; one aggregated uplink/downlink pipe per leaf to the spine
/// crossbar. Same-leaf traffic never leaves the leaf.
class FatTree final : public SwitchTopology {
 public:
  FatTree(sim::Engine& eng, const SwitchConfig& cfg, std::size_t nodes,
          std::size_t leaf_radix)
      : leaf_radix_(leaf_radix) {
    const std::size_t leaves = (nodes + leaf_radix - 1) / leaf_radix;
    for (std::size_t l = 0; l < leaves; ++l) {
      SwitchConfig leaf_cfg = cfg;
      leaf_cfg.ports = leaf_radix;
      leaves_.push_back(std::make_unique<CrossbarSwitch>(eng, leaf_cfg));
      // Uplinks run at link rate: an oversubscription factor of
      // leaf_radix : 1 for traffic leaving the leaf.
      up_.push_back(std::make_unique<Pipe>(eng, cfg.port_bytes_per_second,
                                           cfg.forward_latency));
    }
    SwitchConfig spine_cfg = cfg;
    spine_cfg.ports = leaves;
    spine_ = std::make_unique<CrossbarSwitch>(eng, spine_cfg);
  }

  int hops(int src, int dst, Pipe* out[kMaxHops]) override {
    const std::size_t src_leaf = static_cast<std::size_t>(src) / leaf_radix_;
    const std::size_t dst_leaf = static_cast<std::size_t>(dst) / leaf_radix_;
    const std::size_t dst_port = static_cast<std::size_t>(dst) % leaf_radix_;
    int n = 0;
    if (src_leaf != dst_leaf) {
      out[n++] = up_[src_leaf].get();        // leaf -> spine
      out[n++] = &spine_->port(dst_leaf);    // spine crossbar
    }
    out[n++] = &leaves_[dst_leaf]->port(dst_port);  // leaf -> node
    return n;
  }
  const char* name() const override { return "fat-tree"; }

  std::size_t leaf_radix() const { return leaf_radix_; }

 private:
  std::size_t leaf_radix_;
  std::vector<std::unique_ptr<CrossbarSwitch>> leaves_;
  std::vector<std::unique_ptr<Pipe>> up_;
  std::unique_ptr<CrossbarSwitch> spine_;
};

}  // namespace mns::model
