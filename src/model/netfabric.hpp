// NetFabric: the shared skeleton of a cluster interconnect.
//
// One NIC per node, one central crossbar switch, per-node host buses. A
// message posted by the host is handled by the sender NIC's (simulated)
// injection engine: per-message setup, then MTU packets DMA'd from host
// memory (closed loop on the bus) and pushed through
//
//   [host bus] -> [NIC tx] -> [switch port(dst)] -> [NIC rx] -> [host bus]
//
// with every stage a FIFO Pipe, so per-(src,dst) delivery order equals
// post order — the property the MPI devices rely on. Intra-node messages
// (src == dst, the "NIC loopback" path some MPI devices use) skip the
// switch.
//
// Data-path implementation (see DESIGN.md "message data path"): each
// message is driven by a slab-pooled MsgFlow state machine stepping the
// packet event sequence through raw EventFn continuations — no coroutine
// frames, no shared_ptr, no allocation after warm-up.
//
// The three interconnects subclass this and add their quirks through the
// protected hooks: Myrinet's shared SRAM staging, Quadrics' NIC MMU walks
// and DMA-queue-overflow penalty, InfiniBand's per-connection resources.
#pragma once

#include <cstdint>
#include <functional>  // simcheck-allow: model-alloc
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "model/node_hw.hpp"
#include "model/pipe.hpp"
#include "model/switch.hpp"
#include "model/topology.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace mns::audit {
class AuditReport;
}

namespace mns::sim::pdes {
class FabricExecutor;
struct WireMsg;
}  // namespace mns::sim::pdes

namespace mns::model {

/// One message travelling the fabric. Callbacks are how the MPI device
/// layers react; the fabric itself never touches payload bytes. Each is a
/// single-shot sim::EventFn: a callback capturing at most two trivially
/// copyable words (the devices pass a channel pointer and a pooled
/// per-message record) is stored inline, so posting a message allocates
/// nothing.
struct NetMsg {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  std::uint64_t src_addr = 0;  // buffer identities for MMU/TLB models
  std::uint64_t dst_addr = 0;
  /// Zero-copy sends complete at the sender only once delivered (the RC /
  /// directed-send acknowledgement); eager sends complete when the last
  /// byte has left the sender NIC.
  bool complete_on_delivery = false;
  sim::EventFn local_complete;
  /// Runs on the partition owning `dst` (the rx half of a split flow).
  sim::EventFn remote_arrival;
  /// Fired (instead of the callbacks above that have not yet fired) when
  /// the fabric's recovery protocol exhausts its retry budget for this
  /// message — the QP-error / give-up surface the MPI device turns into an
  /// error Status. Null means the device cannot handle transport errors;
  /// the message is then silently dropped on exhaustion (audited as
  /// errored either way).
  sim::EventFn on_failed;
};

/// Per-fabric recovery protocol parameters (see DESIGN.md "fault &
/// recovery model"). All three interconnects recover transparently below
/// the MPI layer; they differ in who retransmits, what is retransmitted,
/// and how the timeout grows:
///   kIbRc    — IB RC per-QP timeout/retry: selective retransmit of the
///              lost packets, fixed RTO, retry_budget mirrors the QP's
///              retry counter; exhaustion raises a QP error.
///   kGoBackN — GM firmware Go-Back-N: the receiver discards every packet
///              after a sequence gap (cumulative-ack semantics), the
///              sender resends the whole window from the gap.
///   kHwRetry — Elan hardware DMA retry: selective retransmit with
///              bounded exponential backoff (rto, 2*rto, ... capped).
struct RecoveryConfig {
  enum class Protocol : std::uint8_t { kIbRc, kGoBackN, kHwRetry };
  Protocol protocol = Protocol::kIbRc;
  sim::Time rto = sim::Time::us(40);
  sim::Time backoff_cap = sim::Time::zero();  // >0 enables backoff growth
  int retry_budget = 7;  // resend rounds before surfacing an error
};

/// Context for wiring a fault::Injector's per-node registration-failure
/// stream into a RegistrationCache fail hook (plain function pointer +
/// ctx — see RegistrationCache::set_fail_hook). The owning fabric keeps
/// one per armed node in a fully-reserved vector so the pointers stay
/// stable.
struct RegFailCtx {
  fault::Injector* injector = nullptr;
  int node = 0;
  static bool hook(void* ctx) {
    auto* c = static_cast<RegFailCtx*>(ctx);
    return c->injector->reg_should_fail(c->node);
  }
};

struct NicConfig {
  double tx_rate;         // NIC injection rate (bytes/s), <= link rate
  double rx_rate;         // NIC delivery rate
  sim::Time tx_wire_latency;   // propagation + serial link latency, tx side
  sim::Time rx_fixed;          // per-packet receive processing
  sim::Time per_msg_setup;     // per-message work on the sending NIC
  sim::Time per_msg_rx_setup;  // per-message work on the receiving NIC
  std::uint32_t mtu;
  /// NIC with one protocol processor (LANai, Elan3): per-message send and
  /// receive processing serialize on it, so simultaneous bi-directional
  /// traffic pays extra latency (paper Fig. 4). The InfiniHost has
  /// independent hardware engines per direction and sets this false.
  bool shared_processor = false;
  /// Reliable-delivery acknowledgement: after delivery, the *source* NIC
  /// processes an ack to retire the send token, occupying its protocol
  /// processor. Zero disables.
  sim::Time ack_processing = sim::Time::zero();
  sim::Time ack_delay = sim::Time::zero();  // wire time for the ack
};

/// Partition layout for PDES execution of the fabric: which partition
/// owns each node, and each partition's private Engine. Null/absent means
/// sequential execution on the constructor's engine (partition count 1).
struct FabricPartitioning {
  std::vector<int> part_of;           // node -> partition
  std::vector<sim::Engine*> engines;  // partition -> engine
};

class NetFabric {
 public:
  NetFabric(sim::Engine& eng, std::vector<NodeHw*> nodes,
            const SwitchConfig& sw, const NicConfig& nic,
            const FabricPartitioning* parts = nullptr);
  virtual ~NetFabric();
  NetFabric(const NetFabric&) = delete;
  NetFabric& operator=(const NetFabric&) = delete;

  /// Hand a message to the source NIC. Returns immediately; progress is
  /// autonomous (hardware), completion is reported via the callbacks.
  void post(NetMsg msg);

  sim::Engine& engine() const { return *eng_; }
  std::size_t node_count() const { return nodes_.size(); }
  NodeHw& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  SwitchTopology& topology() { return *topo_; }
  const NicConfig& nic_config() const { return nic_; }

  /// Partition ownership (all zero / the constructor engine when built
  /// without a FabricPartitioning).
  int partition_of(int node) const {
    return part_of_[static_cast<std::size_t>(node)];
  }
  sim::Engine& node_engine(int node) const {
    return *node_eng_[static_cast<std::size_t>(node)];
  }
  int partitions() const { return partitions_; }

  /// Attach the PDES executor carrying the split-flow wire protocol:
  /// registers one message handler per node and the box deleter. Must be
  /// called once, before any traffic, when constructed partitioned.
  void bind_executor(sim::pdes::FabricExecutor& exec);

  /// Run `fn` on the partition owning `dst_node`, as if scheduled from
  /// `src_node`: immediately (inline) when both nodes share a partition —
  /// the sequential behaviour — otherwise as a timestamped channel call
  /// one lookahead in the future. Cross-partition MPI error paths
  /// (recv-side teardown on a sender-side transport error) route through
  /// this instead of touching remote state directly.
  ///
  /// Under a fail-stop plan the cross-NODE delay is uniform instead:
  /// every src != dst call pays error_notify_delay() whether or not the
  /// nodes share a partition. The error indication is a wire-borne event
  /// (a NACK / teardown crossing the link), so it cannot be observed
  /// faster than the fabric's tightest protocol slack — and charging the
  /// same delay in sequential runs is what makes fail-stop outcomes
  /// bit-identical across partition counts.
  void run_on_node(int src_node, int dst_node,
                   // simcheck-allow: model-alloc (error path only)
                   std::function<void()> fn);

  /// Wire latency charged to cross-node error notifications under a
  /// fail-stop plan (see run_on_node). The cluster sets it to the PDES
  /// executor's conservative slack so sequential and partitioned runs
  /// charge the same figure.
  void set_error_notify_delay(sim::Time d) { error_notify_delay_ = d; }
  sim::Time error_notify_delay() const { return error_notify_delay_; }

  std::uint64_t messages_posted() const { return sum(&Shard::posted); }
  std::uint64_t messages_delivered() const { return sum(&Shard::delivered); }
  /// Messages whose recovery protocol ran and exhausted its retry budget
  /// (surfaced via NetMsg::on_failed).
  std::uint64_t messages_errored() const { return sum(&Shard::errored); }
  /// Messages fast-failed by the degradation protocol because the fabric
  /// had already learned the target link is permanently dead — surfaced
  /// via NetMsg::on_failed without re-running the packet-level retry
  /// cycle. Always zero without a fail-stop fault plan. Finalize law:
  ///   posted == delivered + errored + aborted.
  std::uint64_t messages_aborted() const { return sum(&Shard::aborted); }

  /// Install a fault plan (chaos harness). Must be called before the
  /// simulation runs; an empty plan is a no-op, keeping the data path
  /// bit-identical to a fabric without any plan installed. Subclasses
  /// extend this to arm their own components (regcache failure hooks).
  virtual void set_fault_plan(const fault::FaultPlan& plan);
  bool fault_active() const { return injector_ != nullptr; }
  /// True when the installed plan contains permanent (fail-stop)
  /// failures. A static plan property: transient-only plans keep every
  /// downstream consumer (collective error agreement, degradation
  /// bookkeeping) on the exact pre-fail-stop code path.
  bool fail_stop_armed() const { return fail_stop_armed_; }
  /// True once this fabric has learned (by exhausting a retry budget)
  /// that link src->dst is permanently dead and degraded it.
  bool link_known_dead(int src, int dst) const;
  /// Links whose permanent death has been learned, and messages degraded
  /// on them since. Derived from per-shard state on demand — the fabrics
  /// rename these into their own vocabulary (QP teardowns, route probes,
  /// retry escalations) without keeping shared mutable counters.
  std::uint64_t links_failed() const;
  std::uint64_t degrade_rounds() const;
  const RecoveryConfig& recovery_config() const { return recovery_; }

  /// Progress watchdog: a flow whose retransmit rounds exceed this
  /// ceiling aborts the run with sim::LivelockError + diagnostic (the
  /// quiescence DeadlockError cannot catch an RTO storm — it schedules
  /// events forever). The default sits far above any sane retry budget,
  /// so it only trips on genuinely unbounded protocols.
  void set_watchdog_rounds(int rounds) { watchdog_rounds_ = rounds; }
  int watchdog_rounds() const { return watchdog_rounds_; }
  /// Diagnostic snapshot for the livelock report: per-shard counters,
  /// live flow stages (src, dst, kind of wait, attempts, pending
  /// packets), and per-node send-queue depths.
  std::string progress_report() const;

  // Fault/recovery conservation counters. Law (audited at finalize):
  //   dropped + corrupted + gbn_discarded == retransmitted + abandoned.
  std::uint64_t packets_dropped() const { return sum(&Shard::faults_drop); }
  std::uint64_t packets_corrupted() const {
    return sum(&Shard::faults_corrupt);
  }
  std::uint64_t packets_gbn_discarded() const {
    return sum(&Shard::gbn_discards);
  }
  std::uint64_t packets_retransmitted() const {
    return sum(&Shard::retransmitted);
  }
  std::uint64_t packets_abandoned() const { return sum(&Shard::abandoned); }

  /// Always 0: every message runs the packet machine (the closed-form
  /// express path was removed). Kept because perfbench/mnsbench.cpp
  /// still reports them as model.express_msgs / model.express_demotions.
  std::uint64_t express_messages() const { return 0; }
  std::uint64_t express_demotions() const { return 0; }

  /// Finalize-time conservation checks: every posted message delivered,
  /// every broadcast completed, all NIC/switch stages idle and no live
  /// message flows. Subclasses extend with their own invariants (per-QP
  /// memory, DMA descriptors).
  virtual void register_audits(audit::AuditReport& report);

  /// Switch-level multicast: one injection from `src`'s NIC, replicated by
  /// the crossbar to every other node (Elite hardware broadcast; IB
  /// multicast groups). `extra_setup` models the protocol envelope;
  /// `on_delivered` fires when every copy has landed. Legs are chunked
  /// with the same pipelining granularity as unicast messages.
  void post_switch_broadcast(int src, std::uint64_t bytes,
                             sim::Time extra_setup,
                             // simcheck-allow: model-alloc (per-broadcast callback)
                             std::function<void()> on_delivered);

 protected:
  /// Per-message setup on the sending NIC (serialized per node).
  virtual sim::Time tx_setup(const NetMsg& msg);
  /// Stall before injection, occupying the tx pipe (e.g. source MMU walk).
  virtual sim::Time tx_stall(const NetMsg& msg);
  /// Stall before delivery, occupying the rx pipe (e.g. dest MMU walk).
  /// Called once per message, at first-packet delivery time.
  virtual sim::Time rx_stall(const NetMsg& msg);
  /// Optional extra shared stage for this message on `node`'s NIC
  /// (Myrinet SRAM staging). Return nullptr for none. Must be a pure
  /// function of (node, msg): the data path resolves it once per message.
  virtual Pipe* staging_pipe(int node_id, const NetMsg& msg);
  /// Book-keeping hooks (outstanding-message tracking).
  virtual void on_posted(const NetMsg& msg);
  virtual void on_delivered(const NetMsg& msg);
  /// Recovery gave up on the message (counterpart of on_delivered for the
  /// error path): subclasses release whatever on_posted acquired.
  virtual void on_aborted(const NetMsg& msg);
  /// Fail-stop degradation hooks. on_link_failed fires once per (src,
  /// dst) link, on the src node's owning partition, at the moment a
  /// retry-budget exhaustion is attributed to a permanent failure;
  /// subclasses tear down per-connection state (IB) or record the
  /// escalation (Elan). degrade_delay prices the bounded degradation
  /// work a *subsequent* message on the dead link pays before its
  /// fast-fail surfaces: `round` counts prior degraded messages on that
  /// link (1 for the first), so IB can model capped reconnect backoff
  /// and GM a one-time alternate-route probe. Must be pure functions of
  /// their arguments (no RNG) so partitioned runs stay bit-identical.
  virtual void on_link_failed(int src, int dst);
  virtual sim::Time degrade_delay(const NetMsg& msg, int round) const;
  /// Recovery protocol parameters; subclasses set these in their
  /// constructor from their config.
  void set_recovery(const RecoveryConfig& rc) { recovery_ = rc; }
  /// Installed injector (null without a fault plan); subclasses use it to
  /// wire fabric-specific fault surfaces (registration failures).
  fault::Injector* injector() { return injector_.get(); }

  Pipe& tx_pipe(int node_id) { return *tx_[static_cast<std::size_t>(node_id)]; }
  Pipe& rx_pipe(int node_id) { return *rx_[static_cast<std::size_t>(node_id)]; }
  Pipe& nic_proc(int node_id) {
    return *nic_proc_[static_cast<std::size_t>(node_id)];
  }

 private:
  struct MsgFlow;   // pooled per-message state machine (netfabric.cpp)

  /// Pipelining granularity: MTU-sized packets, but capped at 64 chunks
  /// per message so huge transfers stay cheap to simulate (the pipeline
  /// fill/drain error of coarser chunking is under 2%). Shared by the
  /// unicast data path and the switch-broadcast legs.
  struct ChunkPlan {
    std::uint64_t chunk;
    std::uint64_t packets;
  };
  static ChunkPlan chunk_plan(std::uint64_t bytes, std::uint32_t mtu);

  /// Per-partition slice of the fabric's mutable bookkeeping. Every
  /// counter and the MsgFlow pool are sharded by owning partition so
  /// partitioned execution never shares a cache line across workers;
  /// accessors sum at finalize. Sequential fabrics have exactly one
  /// shard, making the sharding a pure rename of the old members.
  struct Shard {
    // Pooled MsgFlow slab (tx halves launched here + rx halves of
    // boundary flows terminating here).
    std::vector<std::unique_ptr<MsgFlow>> slab;
    MsgFlow* free_list = nullptr;
    std::size_t flows_active = 0;
    // Live halves of split flows owned by this partition (tx halves of
    // outbound boundary flows, rx halves of inbound ones), keyed by the
    // globally-unique flow key.
    std::unordered_map<std::uint64_t, MsgFlow*> wire_flows;
    std::uint64_t posted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t errored = 0;
    std::uint64_t aborted = 0;
    // Fail-stop degradation state, sized nodes*nodes lazily (only when a
    // fail-stop plan is armed; empty otherwise). Only src nodes owned by
    // this shard write/read their rows, so partitions never share it.
    // dead[src*n+dst] != 0 once the link's death was learned;
    // degrade_round counts degraded messages per dead link (the backoff
    // input for degrade_delay).
    std::vector<std::uint8_t> dead;
    std::vector<std::uint32_t> degrade_round;
    std::uint64_t bcasts_posted = 0;
    std::uint64_t bcasts_delivered = 0;
    std::uint64_t faults_drop = 0;
    std::uint64_t faults_corrupt = 0;
    std::uint64_t gbn_discards = 0;
    std::uint64_t retransmitted = 0;
    std::uint64_t abandoned = 0;
  };

  std::uint64_t sum(std::uint64_t Shard::*m) const {
    std::uint64_t s = 0;
    for (const auto& sh : shards_) s += (*sh).*m;
    return s;
  }
  Shard& shard_of_node(int node) {
    return *shards_[static_cast<std::size_t>(
        part_of_[static_cast<std::size_t>(node)])];
  }
  Shard& shard_of(const MsgFlow& f);
  bool is_boundary(int src, int dst) const {
    return part_of_[static_cast<std::size_t>(src)] !=
           part_of_[static_cast<std::size_t>(dst)];
  }

  /// One node's NIC injection engine: a state machine over its send
  /// queue, one message at a time — per-message setup on the NIC (or its
  /// shared protocol processor), the tx stall, then the flow's closed-loop
  /// packet fetch (MsgFlow's kFetch steps) — so no coroutine frame is
  /// involved. Each node's first event, scheduled at construction, starts
  /// it; from then on a post to an idle sender wakes it with a zero-delay
  /// event.
  struct Sender {
    sim::Fifo<NetMsg> queue;
    NetMsg msg;  // the message in setup, until its flow takes it
    int node = 0;
    bool idle = false;  // waiting for a post (not before the start event)
  };
  /// Take the next message off `s`'s queue, or go idle.
  void sender_next(Sender& s);
  /// The per-message setup ended: the tx stall, then the flow.
  void sender_setup_done(Sender& s);
  /// Start the message's flow and its first packet's fetch.
  void sender_launch(Sender& s);
  /// Fetch packet `p` of `f` across its source host bus; the flow's
  /// kFetch step runs when the DMA ends.
  void fetch_packet(MsgFlow& f, std::uint64_t p);

  MsgFlow* acquire_flow(Shard& sh);
  void release_flow(MsgFlow& f);

  void init_flow(MsgFlow& f, NetMsg msg);

  // ---- Split-flow wire protocol (boundary flows under PDES execution).
  // The tx half ends at NIC-tx completion; everything beyond the switch
  // entry runs as an rx half on the destination partition, started and
  // fed by timestamped executor messages (netfabric.cpp, "split-flow
  // protocol").
  void wire_handle(int node, const sim::pdes::WireMsg& m);
  void wire_open(int dst, const sim::pdes::WireMsg& m);
  void wire_enter(int dst, const sim::pdes::WireMsg& m);
  void wire_loss(const sim::pdes::WireMsg& m);
  void wire_land(const sim::pdes::WireMsg& m);
  void wire_close(const sim::pdes::WireMsg& m);
  /// Draw this packet's launch-time fault verdict (boundary flows only:
  /// same stream, same order, same verdict instants as the sequential
  /// kTx-time draw) and send the forward ENTER message where the switch
  /// entry time is already known.
  void launch_boundary_packet(MsgFlow& f, std::uint64_t p, sim::Time t_tx);
  /// Reserve the destination rx stage for an rx-half packet and decide
  /// its predetermined fate (CRC discard / Go-Back-N gap) — computable
  /// one stage early, which is what gives the reverse LOSS message its
  /// lookahead slack while reporting the exact sequential detection time.
  void rx_half_reserve_rx(MsgFlow& f, std::uint64_t p, sim::Time done);
  void finish_boundary_delivery(MsgFlow& f);

  void flow_step(MsgFlow& f, std::uintptr_t word);
  void deliver(MsgFlow& f);
  /// The delivery ack of a message from `src`: it returns to the source
  /// NIC after ack_delay and occupies its protocol processor for
  /// ack_processing while the send token is retired. Three plain events
  /// on `src`'s engine: a start at now, the ack's arrival, and the end of
  /// the processor slot. The last runs no code, yet it stays: it can be
  /// a run's final event, which sets the clock a run reports.
  void send_delivery_ack(int src);

  // Recovery machine (all no-ops unless a fault plan is installed).
  void lose_packet(MsgFlow& f, std::uint64_t p);
  void arm_rto(MsgFlow& f);
  void resend_lost(MsgFlow& f);
  void fail_flow(MsgFlow& f);
  sim::Time rto_delay(const MsgFlow& f) const;

  // Fail-stop degradation (no-ops unless the plan has fail-stop clauses).
  std::size_t link_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * nodes_.size() +
           static_cast<std::size_t>(dst);
  }
  /// Record that (src, dst) is permanently dead in src's shard and fire
  /// on_link_failed exactly once per link.
  void learn_link_dead(Shard& sh, int src, int dst);
  /// Terminal accounting for a message fast-failed by degradation: counts
  /// `aborted`, releases subclass resources and surfaces on_failed.
  void abort_degraded(NetMsg msg);

  sim::Engine* eng_;
  std::vector<NodeHw*> nodes_;
  std::unique_ptr<SwitchTopology> topo_;
  NicConfig nic_;
  std::vector<std::unique_ptr<Pipe>> tx_;
  std::vector<std::unique_ptr<Pipe>> rx_;
  std::vector<std::unique_ptr<Pipe>> nic_proc_;  // shared protocol processor
  std::vector<Sender> senders_;  // per node; never resized after build
  // One Shard per partition (heap-allocated so MsgFlow needs only the
  // forward declaration here). Sequentially there is exactly one.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Partition layout: node -> owning partition / owning engine. All
  // zeros / all eng_ when constructed without a FabricPartitioning.
  std::vector<int> part_of_;
  std::vector<sim::Engine*> node_eng_;
  int partitions_ = 1;
  sim::pdes::FabricExecutor* exec_ = nullptr;
  // Per-source-node sequence numbers for boundary flow keys (only the
  // owning partition touches its nodes' counters).
  std::vector<std::uint64_t> flow_seq_;
  // Fault injection + recovery (null injector = lossless fabric).
  std::unique_ptr<fault::Injector> injector_;
  RecoveryConfig recovery_;
  // Fail-stop degradation + progress watchdog.
  bool fail_stop_armed_ = false;
  int watchdog_rounds_ = 1024;
  sim::Time error_notify_delay_{};  // uniform cross-node notify latency
};

}  // namespace mns::model
