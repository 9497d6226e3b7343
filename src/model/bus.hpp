// Host I/O bus model (PCI / PCI-X).
//
// PCI and PCI-X are shared half-duplex buses: NIC-to-memory and
// memory-to-NIC DMA compete for the same wires. This single shared Pipe is
// exactly what caps InfiniBand's bi-directional bandwidth at ~900 MB/s on
// PCI-X (paper Fig. 5) and uni-directional bandwidth at 378 MB/s on PCI
// (Fig. 27): the fabric is faster than the bus.
#pragma once

#include <cstdint>
#include <string>

#include "model/pipe.hpp"

namespace mns::model {

struct BusConfig {
  std::string name;
  double effective_bytes_per_second;  // after protocol/arbitration overheads
  sim::Time per_dma_setup;            // DMA transaction setup cost
};

/// The paper's two bus generations. Effective rates are calibrated so the
/// measured MPI numbers (841 MB/s uni / 900 MB/s bi on PCI-X, 378 MB/s on
/// PCI for InfiniBand) fall out of the end-to-end model.
BusConfig pcix_133() noexcept;  // 64-bit/133 MHz, 1064 MB/s theoretical
BusConfig pci_66() noexcept;    // 64-bit/66 MHz,   532 MB/s theoretical

class HostBus {
 public:
  HostBus(sim::Engine& eng, const BusConfig& cfg)
      : pipe_(eng, cfg.effective_bytes_per_second, cfg.per_dma_setup),
        cfg_(cfg) {}

  /// One DMA transaction crossing the bus (either direction).
  sim::Delay dma(std::uint64_t bytes) { return pipe_.transfer(bytes); }

  const BusConfig& config() const { return cfg_; }
  const Pipe& pipe() const { return pipe_; }
  /// Mutable pipe access for the fabric's reservation-driven data path.
  Pipe& pipe() { return pipe_; }

 private:
  Pipe pipe_;
  BusConfig cfg_;
};

}  // namespace mns::model
