// The eager/rendezvous channel device used by MPI-over-InfiniBand
// (MVAPICH-style) and MPI-over-GM (MPICH-GM-style). The two differ only in
// parameters and fabric:
//
//   eager  (bytes < eager_threshold): payload is copied through
//          pre-registered staging at both ends; the send completes when
//          the data has left the sender NIC.
//   rendezvous (>= threshold): the user buffer is registered through the
//          pin-down cache, an RTS control message is sent, the receiver
//          matches + registers its buffer + returns a CTS, and the data
//          moves zero-copy (RDMA write / directed send). Send completes on
//          delivery (the transport-level ack).
//
// Crucially, the RTS and CTS handlers need the HOST: if the rank is
// computing outside MPI when they arrive, handling is deferred to its next
// MPI call (Proc::host_action). That single mechanism produces the paper's
// Fig. 6 overlap plateau for InfiniBand and Myrinet.
//
// Intra-node messages below `smp_threshold` ride the shared-memory domain;
// at or above it they use the fabric's NIC loopback path (what MVAPICH
// does; MPICH-GM sets the threshold to infinity and uses shm for
// everything).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/netfabric.hpp"
#include "model/regcache.hpp"
#include "mpi/device.hpp"
#include "mpi/mpi.hpp"
#include "mpi/records.hpp"
#include "shm/shm_domain.hpp"

namespace mns::mpi {

struct RdvChannelConfig {
  std::string name;
  std::uint64_t eager_threshold;  // below: eager; at/above: rendezvous
  std::uint64_t smp_threshold;    // intra-node: below -> shm, else loopback
  sim::Time o_send;               // host CPU per send
  sim::Time o_recv;               // host CPU per receive completion
  sim::Time o_ctrl;               // host CPU handling RTS/CTS
  sim::Time o_match_entry;        // host cost per extra posted-queue entry
                                  // scanned while matching an arrival
  bool allreduce_recursive_doubling = false;  // MPICH >= 1.2.5 algorithm
  /// Ablation: pretend the NIC (or a progress thread) runs the protocol
  /// handlers, i.e. never defer them while the host computes.
  bool nic_progress = false;
  std::uint64_t ctrl_bytes;       // RTS/CTS/header wire size
  /// Extension (the paper's Section 3.7 direction, after Kini et al.):
  /// barrier/broadcast over InfiniBand hardware multicast instead of
  /// point-to-point trees. Needs a reliability envelope on top of the
  /// unreliable multicast, modelled as a fixed software overhead.
  bool hw_multicast = false;
  sim::Time hw_bcast_overhead = sim::Time::zero();
  shm::ShmConfig shm;
};

class RdvChannel final : public Device {
 public:
  RdvChannel(Mpi& mpi, model::NetFabric& fabric, RdvChannelConfig cfg,
             std::function<model::RegistrationCache&(int)> regcache,
             std::function<std::uint64_t(int)> memory);

  sim::Task<void> start_send(SendOp op) override;
  bool has_hw_broadcast() const override { return cfg_.hw_multicast; }
  void hw_broadcast(Rank root, std::uint64_t bytes, std::uint64_t addr,
                    std::function<void()> done) override;
  bool allreduce_recursive_doubling() const override {
    return cfg_.allreduce_recursive_doubling;
  }
  std::uint64_t memory_bytes(int node) const override;
  const char* name() const override { return cfg_.name.c_str(); }

  const RdvChannelConfig& config() const { return cfg_; }

 private:
  /// A buffered (eager or shared-memory) message: the sender's request
  /// and what the receiver needs once the data lands. References: the
  /// receiver side (arrival through delivery or error) and, for eager
  /// sends, the sender side (local completion or failure).
  struct Buffered : PooledRecord<Buffered> {
    Envelope env;
    RequestState* req = nullptr;
    bool local_done = false;
    sim::Time cost;  // receiver host cost, fixed when the data arrives
    std::vector<std::byte> payload;  // real payloads only; capacity kept
  };

  /// A rendezvous handshake, touched by both sides in turn (RTS at the
  /// receiver, CTS at the sender, data and FIN at both). One reference
  /// follows the handshake; the data leg and the two failure routes
  /// hold extra ones while they run concurrently with it.
  struct Rdv : PooledRecord<Rdv> {
    SendOp send;
    PostedRecv recv;
    bool recv_matched = false;  // receiver side
    bool recv_done = false;     // receiver side
    bool send_done = false;     // sender side
  };

  sim::Task<void> send_shm(SendOp op);
  sim::Task<void> send_eager(SendOp op);
  sim::Task<void> send_rendezvous(SendOp op);

  /// A buffered message carrying `op`'s envelope, request and payload.
  Buffered* new_buffered(const SendOp& op, std::uint32_t refs);

  // Sender-side completion of an eager send (event context).
  void complete_eager(Buffered* b);
  void fail_eager(Buffered* b);

  // Receiver-side handlers (event context, host-gated).
  void on_eager_arrival(Buffered* b);
  void on_shm_arrival(Buffered* b);
  void match_buffered(Buffered* b);
  void on_rts(Rdv* r);
  void match_rts(Rdv* r);
  void on_cts(Rdv* r);
  void post_rendezvous_data(Rdv* r);
  void on_data_sent(Rdv* r);
  void on_fin(Rdv* r);

  // Host-work continuations, spawned or claimed on the receiving rank.
  sim::Task<void> deliver_buffered(Proc& rp, Buffered* b, PostedRecv pr);
  sim::Task<void> claim_buffered(Buffered* b, PostedRecv pr);
  sim::Task<void> claim_error(Buffered* b, PostedRecv pr);
  sim::Task<void> claim_rts(Rdv* r, PostedRecv pr);
  sim::Task<void> send_cts_after(Proc& rp, sim::Time cost, Rdv* r);
  sim::Task<void> send_data_after(Proc& sp, Rdv* r);
  sim::Task<void> complete_fin(Proc& rp, Rdv* r);
  void post_cts(Rdv* r);
  /// Receive-buffer pinning cost before the CTS can advertise it.
  sim::Time cts_cost(Rdv* r);

  // Graceful degradation under fabric faults (ISSUE: chaos harness).
  /// Route a transport-failure "error envelope" through the receiver's
  /// matcher so its (posted or future) receive completes with an error
  /// Status instead of hanging.
  void fail_recv_side(const Envelope& env, int from_node);
  /// A rendezvous leg (RTS/CTS/data/FIN) exhausted the fabric's retry
  /// budget: complete both sides with an error Status. Consumes the
  /// handshake's reference.
  void fail_rendezvous(Rdv* r, int from_node);

  sim::Time match_scan_cost(Proc& rp) const;
  /// Runs a protocol action directly (nic_progress) or host-gated.
  void gate(Proc& proc, sim::EventFn fn) const;

  Mpi* mpi_;
  model::NetFabric* fabric_;
  RdvChannelConfig cfg_;
  std::function<model::RegistrationCache&(int)> regcache_;
  std::function<std::uint64_t(int)> memory_;
  std::vector<std::unique_ptr<shm::ShmDomain>> shm_;  // per node
  Records<Buffered> buffered_;
  Records<Rdv> rdv_;
};

}  // namespace mns::mpi
