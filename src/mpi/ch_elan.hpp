// MPI device over Quadrics Tports.
//
// Tag matching runs ON the Elan NIC, so — unlike ch_ib/ch_gm — arrival
// handlers never wait for the host: a message arriving while the
// application computes is matched and delivered immediately. Combined with
// the absence of a rendezvous handshake, this is what gives Quadrics its
// steadily-growing overlap potential (paper Fig. 6) at the price of higher
// host overhead per descriptor (Fig. 3).
//
// Intra-node traffic loops through the NIC (the fabric charges its
// loopback penalty): Quadrics' MPI has no effective shared-memory path,
// making intra-node latency *worse* than inter-node (Fig. 9).
#pragma once

#include <memory>
#include <vector>

#include "elan/elan_fabric.hpp"
#include "mpi/device.hpp"
#include "mpi/mpi.hpp"
#include "mpi/records.hpp"

namespace mns::mpi {

struct ElanChannelConfig {
  sim::Time o_send;            // host CPU posting a Tport send descriptor
  sim::Time o_recv;            // host CPU posting/completing a receive
  sim::Time o_unexpected;      // extra host cost claiming a buffered message
  sim::Time o_complete;        // host cost reaping a completed receive
  sim::Time nic_match_per_entry;  // Elan NIC scan cost per extra posted
                                  // receive it walks during tag matching
  sim::Time hw_bcast_overhead;  // software envelope around the hardware
                                // broadcast (descriptor + completion)
  bool use_hw_bcast = true;     // ablation: fall back to p2p collectives
  std::uint64_t ctrl_bytes;    // Tport header wire size
  std::uint64_t buffered_max;  // sends <= this complete at NIC-clear
};

ElanChannelConfig default_elan_channel_config();

class ElanChannel final : public Device {
 public:
  ElanChannel(Mpi& mpi, elan::ElanFabric& fabric, ElanChannelConfig cfg);

  void start_send(SendOp& op) override;
  sim::Time recv_post_cost() const override { return cfg_.o_recv; }
  bool has_hw_broadcast() const override { return cfg_.use_hw_bcast; }
  void hw_broadcast(Rank root, std::uint64_t bytes, std::uint64_t addr,
                    std::function<void()> done) override;
  std::uint64_t memory_bytes(int node) const override;
  const char* name() const override { return "ch_elan"; }

 private:
  /// One Tport message. References: the receiver side (NIC matching
  /// through delivery or the unexpected claim) and the sender side (local
  /// completion or failure).
  struct Msg : PooledRecord<Msg> {
    Envelope env;
    RequestState* req = nullptr;  // the send request
    View src_view;
    bool send_done = false;
    std::vector<std::byte> payload;  // buffered or unexpected real data
    PostedRecv recv;    // the claiming receive (unexpected messages)
    sim::Cont claimed;  // and its continuation
  };

  /// A NIC delivery into a posted receive, after the payload has landed:
  /// the NIC work still to charge and the completion it ends in. Kept
  /// apart from Msg so the payload-carrying record is released at once.
  struct Delivery : PooledRecord<Delivery> {
    RequestState* req = nullptr;  // the matched receive
    Status status;
    Rank dst = 0;
    sim::Time stall;  // NIC scan + MMU work for the match
  };

  /// The rest of start_send, from the event that ends the o_send pause.
  void post_send(SendOp& op);
  void complete_send(Msg* m);
  void fail_send(Msg* m);
  void on_arrival(Msg* m);
  /// Start event of a NIC delivery: occupy the NIC processor for the
  /// stall, then complete the receive o_complete after that slot ends.
  /// Each step is an EventFn over the record, without a coroutine frame.
  void deliver(Delivery* d);
  /// Unexpected claims, like RdvChannel's: the receive and its
  /// continuation wait in the Msg while the copy-out occupies the host.
  void claim(Msg* m, PostedRecv pr, sim::Cont done);
  void claim_error(Msg* m, PostedRecv pr, sim::Cont done);
  /// Fabric retry exhaustion: surface the error envelope through NIC
  /// matching so the receive side completes with Status::error.
  void on_failed_arrival(const Envelope& env);

  Mpi* mpi_;
  elan::ElanFabric* fabric_;
  ElanChannelConfig cfg_;
  Records<Msg> msgs_;
  Records<Delivery> deliveries_;
};

}  // namespace mns::mpi
