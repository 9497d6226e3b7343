// Quadrics fabric model (Elan3 QM-400 NICs + Elite switch, Elan3lib/Tports).
//
// Quadrics is architecturally the odd one out:
//   - A global virtual address space: no registration is ever needed, but
//     the Elan3's on-board MMU must hold translations for the pages it
//     DMAs. First-touch of a new buffer stalls the NIC while system
//     software synchronizes the MMU tables — so Quadrics is *still*
//     sensitive to buffer reuse (paper Fig. 7) despite having no pin-down
//     cache.
//   - Tports: tag matching runs ON the NIC, so rendezvous-style transfers
//     progress without any host involvement. This is the mechanism behind
//     Quadrics' superior computation/communication overlap (Fig. 6).
//   - The QDMA engine tracks a bounded number of outstanding descriptors;
//     pushing more than ~16 concurrent sends degrades throughput (the
//     window-size droop in Fig. 2).
//   - Hardware broadcast in the Elite switch: one injection reaches every
//     node, used by the collective fast paths.
//   - The QM-400 sits on plain 66 MHz PCI: the host bus, not the 400 MB/s
//     link, bounds bandwidth.
//   - Its MPI has no shared-memory path worth the name: intra-node
//     messages loop through the NIC and come out *slower* than inter-node
//     (Fig. 9).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "model/netfabric.hpp"
#include "model/nic_tlb.hpp"

namespace mns::elan {

struct ElanConfig {
  model::SwitchConfig switch_cfg;
  model::NicConfig nic;
  model::NicTlbConfig mmu;
  std::size_t dma_queue_depth;     // outstanding sends before degradation
  sim::Time queue_overflow_penalty;  // extra per-message cost when over
  sim::Time loopback_penalty;      // intra-node NIC loopback extra cost
  std::uint64_t memory_bytes;      // flat MPI footprint (Fig. 13)

  /// Elan hardware DMA retry: the NIC re-walks a failed DMA with bounded
  /// exponential backoff, invisible to software until the retry budget is
  /// gone (set in default_elan_config).
  model::RecoveryConfig recovery;
};

/// Calibrated Elan3 QM-400 / Elite parameters.
ElanConfig default_elan_config(std::size_t nodes);

class ElanFabric final : public model::NetFabric {
 public:
  ElanFabric(sim::Engine& eng, std::vector<model::NodeHw*> nodes,
             const ElanConfig& cfg,
             const model::FabricPartitioning* parts = nullptr);

  std::uint64_t memory_bytes(int node) const;

  /// Elite hardware broadcast: one injection from `src`, replicated by the
  /// switch to every other node. `on_delivered` fires once all copies have
  /// landed. Used by the MPI collective fast paths (barrier/bcast).
  void post_hw_broadcast(int src, std::uint64_t bytes, std::uint64_t src_addr,
                         std::function<void()> on_delivered);

  model::NicTlb& mmu(int node) {
    return mmu_[static_cast<std::size_t>(node)];
  }

  /// Occupy node's NIC protocol processor for `d` from now (serializing
  /// with message processing) and return the instant that slot ends. The
  /// MPI device charges its NIC-side tag-match scans here and schedules
  /// the delivery's next step at the returned instant.
  sim::Time occupy_nic(int node, sim::Time d) {
    return nic_proc(node).reserve_after(d, 0);
  }

  std::size_t outstanding(int node) const {
    return outstanding_[static_cast<std::size_t>(node)];
  }

  const ElanConfig& config() const { return cfg_; }

  /// Fail-stop degradation counter: hardware-retry ladders escalated to a
  /// surfaced software error after exhaustion against a dead link/NIC
  /// (one escalation per link learned dead).
  std::uint64_t retry_escalations() const { return links_failed(); }

  /// Adds Elan-specific invariants: no leaked QDMA descriptors (every
  /// posted send retired) and the flat Quadrics memory footprint.
  void register_audits(audit::AuditReport& report) override;

 protected:
  sim::Time tx_setup(const model::NetMsg& msg) override;
  sim::Time tx_stall(const model::NetMsg& msg) override;
  sim::Time rx_stall(const model::NetMsg& msg) override;
  void on_posted(const model::NetMsg& msg) override;
  void on_delivered(const model::NetMsg& msg) override;
  /// Retry exhaustion retires the QDMA descriptor like a delivery would.
  void on_aborted(const model::NetMsg& msg) override;
  /// First degraded DMA still spins the link-level retry ladder to its
  /// backoff cap before the error trap arms; later ones surface after a
  /// single hardware timeout.
  sim::Time degrade_delay(const model::NetMsg& msg, int round) const override;

 private:
  ElanConfig cfg_;
  std::vector<model::NicTlb> mmu_;
  std::vector<std::size_t> outstanding_;
};

}  // namespace mns::elan
