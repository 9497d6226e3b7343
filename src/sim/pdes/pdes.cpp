#include "sim/pdes/pdes.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/pdes/fabric_exec.hpp"

namespace mns::sim::pdes {

namespace {

bool owned_by(const Topology& topo, int node, int part) {
  return node >= 0 && node < topo.nodes &&
         topo.part_of[static_cast<std::size_t>(node)] == part;
}

}  // namespace

Topology Topology::blocks(int nodes, int partitions, Time lookahead) {
  Topology t;
  t.nodes = nodes;
  t.partitions = partitions;
  t.lookahead = lookahead;
  t.part_of.resize(static_cast<std::size_t>(nodes > 0 ? nodes : 0));
  if (nodes > 0 && partitions > 0) {
    for (int i = 0; i < nodes; ++i) {
      t.part_of[static_cast<std::size_t>(i)] =
          static_cast<int>((static_cast<std::int64_t>(i) * partitions) /
                           nodes);
    }
  }
  t.validate();
  return t;
}

void Topology::validate() const {
  if (nodes <= 0) throw std::invalid_argument("pdes: topology needs nodes");
  if (partitions <= 0 || partitions > nodes) {
    throw std::invalid_argument(
        "pdes: partitions must be in [1, nodes], got " +
        std::to_string(partitions) + " for " + std::to_string(nodes) +
        " nodes");
  }
  if (part_of.size() != static_cast<std::size_t>(nodes)) {
    throw std::invalid_argument("pdes: part_of must map every node");
  }
  std::vector<bool> used(static_cast<std::size_t>(partitions), false);
  for (int p : part_of) {
    if (p < 0 || p >= partitions) {
      throw std::invalid_argument("pdes: node mapped to partition " +
                                  std::to_string(p) + " out of range");
    }
    used[static_cast<std::size_t>(p)] = true;
  }
  for (int q = 0; q < partitions; ++q) {
    if (!used[static_cast<std::size_t>(q)]) {
      throw std::invalid_argument("pdes: partition " + std::to_string(q) +
                                  " owns no nodes");
    }
  }
  if (lookahead <= Time::zero()) {
    throw std::invalid_argument(
        "pdes: lookahead must be positive (the conservative window is the "
        "minimum link latency; zero admits no parallel progress)");
  }
}

std::uint64_t Result::digest() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Emission& e : emissions) {
    mix(static_cast<std::uint64_t>(e.at_ps));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
    mix(e.idx);
    mix(e.word);
  }
  mix(static_cast<std::uint64_t>(end_ps));
  return h;
}

void Context::emit(int node, std::uint64_t word) {
  if (!owned_by(exec_->topology(), node, part_)) {
    throw std::logic_error(
        "pdes: emit for a node this partition does not own");
  }
  Emission e;
  e.at_ps = eng_->now().count_ps();
  e.node = node;
  e.idx = (*emit_idx_)[static_cast<std::size_t>(node)]++;
  e.word = word;
  emissions_.push_back(e);
}

void Context::on_message(int node, MsgHandler h) {
  if (!owned_by(exec_->topology(), node, part_)) {
    throw std::logic_error(
        "pdes: on_message for a node this partition does not own");
  }
  // Registered during this partition's own setup, for its own node: the
  // executor's contract for handlers installed mid-round.
  exec_->set_handler(node, [this, h = std::move(h)](const WireMsg& m) {
    ++messages_;
    h(*this, m.dst_node, m.a);
  });
}

void Context::send(int src_node, int dst_node, Time when,
                   std::uint64_t word) {
  const Topology& topo = exec_->topology();
  if (src_node < 0 || src_node >= topo.nodes || dst_node < 0 ||
      dst_node >= topo.nodes) {
    throw std::logic_error("pdes: send with node out of range");
  }
  if (!owned_by(topo, src_node, part_)) {
    throw std::logic_error(
        "pdes: send from a node this partition does not own");
  }
  exec_->send(src_node, dst_node, when, word);
}

Result run(const Topology& topo, const Build& build,
           std::uint64_t event_limit) {
  topo.validate();
  const auto k = static_cast<std::size_t>(topo.partitions);
  // One engine and context per partition. Engine is cache-line aligned,
  // so a slot never shares a line with its neighbours: owners write both
  // on every event and delivery.
  struct Slot {
    Engine eng;
    Context ctx;
  };
  std::vector<Slot> slots(k);
  std::vector<Engine*> engines;
  for (Slot& s : slots) {
    s.eng.set_event_limit(event_limit);
    engines.push_back(&s.eng);
  }
  // Per-node emission counters: a node is owned by exactly one
  // partition, so each entry is touched by one thread only.
  std::vector<std::uint64_t> emit_idx(static_cast<std::size_t>(topo.nodes),
                                      0);
  FabricExecutor exec(topo, engines);
  for (std::size_t p = 0; p < k; ++p) {
    Context& c = slots[p].ctx;
    c.exec_ = &exec;
    c.eng_ = &slots[p].eng;
    c.part_ = static_cast<int>(p);
    c.emit_idx_ = &emit_idx;
  }
  for (int n = 0; n < topo.nodes; ++n) {
    slots[static_cast<std::size_t>(topo.part_of[static_cast<std::size_t>(n)])]
        .ctx.owned_.push_back(n);
  }

  exec.run_round([&](int p) { build(slots[static_cast<std::size_t>(p)].ctx); });

  const std::vector<FabricExecutor::PartStats> stats = exec.part_stats();
  Result r;
  std::size_t total = 0;
  for (const Slot& s : slots) total += s.ctx.emissions_.size();
  r.emissions.reserve(total);
  for (std::size_t p = 0; p < k; ++p) {
    const std::vector<Emission>& em = slots[p].ctx.emissions_;
    r.emissions.insert(r.emissions.end(), em.begin(), em.end());
    r.end_ps = std::max(r.end_ps, slots[p].eng.now().count_ps());
    // Batch carrier events are layout-dependent (same-instant messages
    // split across destination partitions fuse differently), so they are
    // excluded: `events` counts workload events only and is
    // partition-invariant like every counter except delivery_batches.
    r.events += stats[p].events - stats[p].batches;
    r.messages += slots[p].ctx.messages_;
    r.delivery_batches += stats[p].batches;
  }
  // The merge rule: (time, node, per-node index). Every component is
  // partition-invariant, and (node, idx) pairs are unique, so this order
  // is total and identical for every partition count.
  std::sort(r.emissions.begin(), r.emissions.end(),
            [](const Emission& a, const Emission& b) {
              if (a.at_ps != b.at_ps) return a.at_ps < b.at_ps;
              if (a.node != b.node) return a.node < b.node;
              return a.idx < b.idx;
            });
  return r;
}

}  // namespace mns::sim::pdes
