#include "model/netfabric.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/report.hpp"
#include "sim/pdes/fabric_exec.hpp"
#include "util/annotations.hpp"

namespace mns::model {

// ---------------------------------------------------------------------------
// Split-flow wire protocol (cross-partition flows under PDES execution).
//
// A flow whose src and dst live in different partitions is split at the
// switch entry: the tx half (host-bus fetch, NIC injection, source
// staging, the recovery machine) runs on the source partition; the rx
// half (switch port, destination staging, rx pipe, host bus, delivery)
// runs on the destination partition. The halves talk exclusively through
// timestamped FabricExecutor messages:
//
//   OPEN   src->dst  flow descriptor (boxed), sent at packet 0's launch
//                    with when = packet 0's NIC-tx completion; sorts
//                    before the first ENTER via its lower send index.
//   ENTER  src->dst  one packet crossing into the switch. when = the
//                    exact instant the sequential machine would reserve
//                    the switch port: the NIC-tx completion (sent at
//                    launch, slack >= tx wire latency), or the source
//                    staging completion for staged fabrics (sent at the
//                    kTx event, because staging is shared with this
//                    node's receive side; slack >= the packet's staging
//                    serialization, which floors the lookahead).
//                    Dropped packets still send a flagged ENTER — they
//                    never enter the switch, but the receiver's
//                    Go-Back-N sequence check needs to see the gap.
//   LOSS   dst->src  a packet the receiver discarded (CRC failure or
//                    Go-Back-N rejection). when = the exact rx-pipe
//                    completion instant the sequential machine detects
//                    the loss at, sent one stage early (at the rx
//                    reservation), which is what gives it >= rx_fixed of
//                    lookahead slack.
//   LAND   dst->src  a packet that reached the destination host bus.
//                    when = the host-bus DMA completion, sent at the
//                    reservation (slack >= the bus's per-DMA setup).
//   CLOSE  src->dst  recovery gave up (retry budget exhausted); tears
//                    down the rx half one lookahead in the future.
//   CALL   any->any  boxed closure for NetFabric::run_on_node.
//
// Word packing: a = kind | packet << 8 | attempt << 16 | flags;
// b = flow key (src node << 48 | per-source sequence number, never 0).
//
// Equivalence argument (each piece is asserted by the partition-
// invariance chaos suite): every message's `when` equals the sequential
// event instant of the stage it stands in for, and the executor delivers
// merged batches in (when, src node, send idx) order, which matches the
// sequential engine's same-instant order for same-source events (send
// order) and for the symmetric cross-source ties that structured
// workloads produce (ascending node, inherited from rank spawn order).
// Fault verdicts move from tx completion to launch, passing the explicit
// tx-completion timestamp — per-link draw order is preserved because the
// tx pipe is FIFO (launch order == tx-completion order) and a given
// (src, dst) pair is always consistently split or consistently local.
// Receiver-side fates (CRC discard, Go-Back-N gap) are decided at the rx
// reservation, one stage before the sequential machine applies them —
// legal because both inputs (the corrupt flag and the lost-set prefix)
// are stable by reservation time: drop gaps arrive with their flagged
// ENTER before any later packet's switch entry, and FIFO pipes decide
// earlier packets' discards at earlier reservations.
// ---------------------------------------------------------------------------

namespace {

enum WireKind : std::uint64_t {
  kWireOpen = 1,
  kWireEnter,
  kWireLoss,
  kWireLand,
  kWireClose,
  kWireCall,
};
constexpr std::uint64_t kWireFlagDropped = std::uint64_t{1} << 32;
constexpr std::uint64_t kWireFlagCorrupt = std::uint64_t{1} << 33;

std::uint64_t wire_word(WireKind kind, std::uint64_t packet, int attempt) {
  return kind | (packet << 8) | (static_cast<std::uint64_t>(attempt) << 16);
}
std::uint64_t wire_packet(std::uint64_t a) { return (a >> 8) & 0xffu; }
int wire_attempt(std::uint64_t a) {
  return static_cast<int>((a >> 16) & 0xffffu);
}

/// Base of every boxed WireMsg payload; the executor's box deleter
/// destroys through this on abort paths.
struct WireBox {
  virtual ~WireBox() = default;
};

/// OPEN payload: everything the destination partition needs to build the
/// rx half. The NetMsg keeps src/dst/bytes/addresses and the
/// receiver-side callback (remote_arrival); the sender-side closures
/// (local_complete, on_failed) stay with the tx half and are nulled here.
struct OpenBox final : WireBox {
  NetMsg msg;
  std::uint64_t chunk = 0;
  std::uint64_t packets = 0;
  bool faulted = false;
};

/// CALL payload (run_on_node).
struct CallBox final : WireBox {
  std::function<void()> fn;  // simlint-allow: model-alloc (error path only)
};

}  // namespace

// ---------------------------------------------------------------------------
// MsgFlow: the pooled per-message packet state machine.
//
// One MsgFlow drives one message through the historical packet event
// sequence — fetch (host bus) -> launch -> tx -> [staging] -> switch hops
// -> [staging] -> rx (first packet: stall/setup) -> host bus -> deliver —
// using raw EventFn continuations instead of per-packet coroutine frames.
// Each event word packs (stage kind, packet index); the flow object holds
// everything a packet_tail coroutine used to capture, and is recycled
// through a freelist once delivered (audited empty-at-finalize).
// ---------------------------------------------------------------------------
struct NetFabric::MsgFlow {
  explicit MsgFlow(NetFabric& fab) : fab_(&fab) {}

  NetFabric* fab_;
  NetMsg msg;
  std::uint64_t chunk = 0;
  std::uint64_t packets = 0;

  // Partition placement (split-flow protocol; see the file comment).
  sim::Engine* eng = nullptr;  // engine owning this half's events
  Shard* shard = nullptr;      // shard owning this half's pool + counters
  bool in_use = false;         // acquired from the slab, not on the free list
  bool boundary = false;       // tx half of a cross-partition flow
  bool rx_half = false;        // rx half, living on the dst partition
  std::uint64_t flow_key = 0;  // never 0 for split halves
  std::uint64_t drop_mask = 0;   // tx half: launch-drawn drop verdicts
  std::uint64_t rx_discard = 0;  // rx half: fates decided at reservation
  std::uint32_t wire_unresolved = 0;  // tx half: packets awaiting LOSS/LAND

  // Packet-machine counters (mirroring the former MsgState).
  std::uint64_t packets_left_tx = 0;
  std::uint64_t packets_left = 0;
  bool first_packet = true;
  // Eager local_complete already fired; a resend round drains
  // packets_left_tx to zero a second time.
  bool local_fired = false;

  // Recovery-machine state (all dormant unless `faulted`). The chunk plan
  // caps messages at 64 packets, so one word of bits identifies the lost /
  // corrupt-marked packets of the current attempt exactly.
  bool faulted = false;       // fault plan arms this flow's link
  bool fetching = false;      // sender_loop's closed fetch loop still running
  bool rto_armed = false;     // retransmit timer pending
  std::uint64_t lost = 0;     // packets lost this attempt (bit per packet)
  std::uint64_t corrupt_mask = 0;  // marked at tx, detected+lost at rx
  std::uint64_t resend_mask = 0;   // packets a scheduled kResendBatch owes
  std::uint32_t pending = 0;  // packet-machine events currently scheduled
  int attempts = 0;           // resend rounds consumed
  sim::EventId rto_id{};      // cancellable retransmit timer

  // Path, resolved once at launch (hooks are pure per message).
  Pipe* tx = nullptr;
  Pipe* stage_src = nullptr;
  Pipe* hops[SwitchTopology::kMaxHops] = {};
  int nhops = 0;
  Pipe* stage_dst = nullptr;
  Pipe* nic_rx_proc = nullptr;  // shared protocol processor, rx side
  Pipe* rx = nullptr;
  Pipe* dst_bus = nullptr;

  MsgFlow* next_free = nullptr;

  // Completion-event kinds; the event word is kind | (packet << 8).
  enum Kind : std::uint8_t {
    kLaunch,    // zero-delay launch after fetch (mirrors the old spawn)
    kTx,        // sender NIC injection done
    kSrcStage,  // source staging done
    kHop0,      // switching stage hops
    kHop1,
    kHop2,
    kDstStage,  // destination staging done
    kRxProc,    // shared-processor rx setup done
    kRx,        // receiver NIC delivery done
    kBus,       // destination host-bus DMA done
    kRto,       // recovery: retransmission timeout fired
    // One fused relaunch for a whole resend round (resend_mask holds the
    // packets). Replaces the contiguous block of same-instant kLaunch
    // events a round used to schedule: the block occupied consecutive
    // now-queue slots with nothing interleaved, so collapsing it into a
    // single event that launches in the same ascending-packet order
    // preserves the relative order of every event in the run.
    kResendBatch
  };

  static void* word(std::uint8_t kind, std::uint64_t p) {
    return reinterpret_cast<void*>(static_cast<std::uintptr_t>(kind) |
                                   (p << 8));
  }
  static void thunk(void* a, void* b) {
    auto* f = static_cast<MsgFlow*>(a);
    f->fab_->flow_step(*f, reinterpret_cast<std::uintptr_t>(b));
  }

  std::uint64_t pkt_bytes(std::uint64_t p) const {
    if (msg.bytes == 0) return 0;
    return p + 1 < packets ? chunk : msg.bytes - chunk * (packets - 1);
  }
};

NetFabric::NetFabric(sim::Engine& eng, std::vector<NodeHw*> nodes,
                     const SwitchConfig& sw, const NicConfig& nic,
                     const FabricPartitioning* parts)
    : eng_(&eng), nodes_(std::move(nodes)), nic_(nic) {
  const std::size_t n = nodes_.size();
  if (parts != nullptr && parts->engines.size() > 1) {
    if (parts->part_of.size() != n) {
      throw std::invalid_argument(
          "FabricPartitioning: part_of does not cover every node");
    }
    part_of_ = parts->part_of;
    partitions_ = static_cast<int>(parts->engines.size());
    node_eng_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      node_eng_.push_back(
          parts->engines[static_cast<std::size_t>(part_of_[i])]);
    }
  } else {
    part_of_.assign(n, 0);
    partitions_ = 1;
    node_eng_.assign(n, eng_);
  }
  shards_.reserve(static_cast<std::size_t>(partitions_));
  for (int p = 0; p < partitions_; ++p) {
    shards_.push_back(std::make_unique<Shard>());
  }
  flow_seq_.assign(n, 0);

  if (sw.fat_tree_radix > 0 && sw.fat_tree_radix < n) {
    // The fat tree's shared uplink/spine pipes have no single owning
    // node, so partitioned plans demote to sequential before reaching
    // this constructor (Cluster's demotion rules).
    if (partitions_ > 1) {
      throw std::invalid_argument(
          "fat-tree topology cannot run partitioned: shared uplink/spine "
          "pipes have no owning partition (demote to --partitions=1)");
    }
    topo_ = std::make_unique<FatTree>(eng, sw, n, sw.fat_tree_radix);
  } else if (partitions_ > 1) {
    // Crossbar output port i is only ever reserved by traffic to node i,
    // so each port pipe lives on its node's owning engine.
    topo_ = std::make_unique<SingleCrossbar>(eng, node_eng_, sw);
  } else {
    topo_ = std::make_unique<SingleCrossbar>(eng, sw);
  }
  tx_.reserve(n);
  rx_.reserve(n);
  sendq_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Engine& ne = *node_eng_[i];
    tx_.push_back(
        std::make_unique<Pipe>(ne, nic_.tx_rate, nic_.tx_wire_latency));
    rx_.push_back(std::make_unique<Pipe>(ne, nic_.rx_rate, nic_.rx_fixed));
    // Rate is irrelevant for the protocol processor: it only serializes
    // per-message occupancies.
    nic_proc_.push_back(std::make_unique<Pipe>(ne, 1e12));
    sendq_.push_back(std::make_unique<sim::Mailbox<NetMsg>>(ne));
  }
  for (std::size_t i = 0; i < n; ++i) {
    node_eng_[i]->spawn(sender_loop(static_cast<int>(i)), /*daemon=*/true);
  }
}

NetFabric::~NetFabric() = default;

NetFabric::Shard& NetFabric::shard_of(const MsgFlow& f) { return *f.shard; }

void NetFabric::bind_executor(sim::pdes::FabricExecutor& exec) {
  if (partitions_ <= 1) {
    throw std::logic_error("bind_executor on a sequential fabric");
  }
  if (exec_ != nullptr) throw std::logic_error("executor already bound");
  exec_ = &exec;
  exec.set_box_deleter([](void* b) { delete static_cast<WireBox*>(b); });
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int node = static_cast<int>(i);
    exec.set_handler(node, [this, node](const sim::pdes::WireMsg& m) {
      wire_handle(node, m);
    });
  }
}

void NetFabric::run_on_node(int src_node, int dst_node,
                            // simlint-allow: model-alloc (error path only)
                            std::function<void()> fn) {
  if (fail_stop_armed_ && src_node != dst_node &&
      error_notify_delay_ > sim::Time::zero()) {
    // Uniform cross-node error-notification latency (see the header):
    // charge the same wire delay whether or not the nodes share a
    // partition, so degraded runs are bit-identical across partition
    // counts. Same-node calls stay inline — nothing crosses a wire.
    const sim::Time when =
        node_engine(src_node).now() + error_notify_delay_;
    if (is_boundary(src_node, dst_node)) {
      // simcheck-allow: hot-alloc (error teardown only)
      auto box = std::make_unique<CallBox>();  // simlint-allow: model-alloc
      box->fn = std::move(fn);
      exec_->send(src_node, dst_node, when, wire_word(kWireCall, 0, 0), 0, 0,
                  box.release());
    } else {
      node_engine(dst_node).at(when, sim::EventFn::make(std::move(fn)));
    }
    return;
  }
  if (!is_boundary(src_node, dst_node)) {
    fn();
    return;
  }
  // Cross-partition: a timestamped CALL one lookahead in the future (the
  // +lookahead shift is the price of crossing the boundary; callers on
  // this path are error-teardown flows whose timing the chaos suite
  // already treats as fabric-internal).
  // simcheck-allow: hot-alloc (error teardown only)
  auto box = std::make_unique<CallBox>();  // simlint-allow: model-alloc
  box->fn = std::move(fn);
  exec_->send(src_node, dst_node,
              node_engine(src_node).now() + exec_->topology().lookahead,
              wire_word(kWireCall, 0, 0), 0, 0, box.release());
}

void NetFabric::post(NetMsg msg) {
  ++shard_of_node(msg.src).posted;
  on_posted(msg);
  sendq_[static_cast<std::size_t>(msg.src)]->send(std::move(msg));
}

sim::Time NetFabric::tx_setup(const NetMsg&) { return nic_.per_msg_setup; }
sim::Time NetFabric::tx_stall(const NetMsg&) { return sim::Time::zero(); }
sim::Time NetFabric::rx_stall(const NetMsg&) { return sim::Time::zero(); }
Pipe* NetFabric::staging_pipe(int, const NetMsg&) { return nullptr; }
void NetFabric::on_posted(const NetMsg&) {}
void NetFabric::on_delivered(const NetMsg&) {}
void NetFabric::on_aborted(const NetMsg&) {}
void NetFabric::on_link_failed(int, int) {}
sim::Time NetFabric::degrade_delay(const NetMsg&, int) const {
  return sim::Time::zero();
}

void NetFabric::learn_link_dead(Shard& sh, int src, int dst) {
  // The registry was pre-sized by set_fault_plan (fail-stop plans only),
  // so this path never allocates. Only the shard that owns `src` ever
  // touches row `src`, so partitions never share rows and the registry
  // stays deterministic across partition counts.
  const std::size_t li = link_index(src, dst);
  if (sh.dead[li] != 0) return;  // already attributed by an earlier flow
  sh.dead[li] = 1;
  on_link_failed(src, dst);
}

// MNS_HOT: degraded-path terminator — counter bumps and callbacks only,
// no allocation, no flow slab traffic.
MNS_HOT void NetFabric::abort_degraded(NetMsg msg) {
  ++shard_of_node(msg.src).aborted;
  on_aborted(msg);
  if (msg.on_failed) msg.on_failed.invoke();
}

bool NetFabric::link_known_dead(int src, int dst) const {
  const Shard& sh = const_cast<NetFabric*>(this)->shard_of_node(src);
  if (sh.dead.empty()) return false;
  return sh.dead[link_index(src, dst)] != 0;
}

std::uint64_t NetFabric::links_failed() const {
  std::uint64_t n = 0;
  for (const auto& shp : shards_) {
    for (const std::uint8_t b : shp->dead) n += b;
  }
  return n;
}

std::uint64_t NetFabric::degrade_rounds() const {
  std::uint64_t n = 0;
  for (const auto& shp : shards_) {
    for (const std::uint32_t r : shp->degrade_round) n += r;
  }
  return n;
}

std::string NetFabric::progress_report() const {
  // Watchdog diagnostic: enough state to see *where* forward progress
  // stopped — per-shard message counters, flows still holding slab
  // entries (with their stage bits), and send-queue depths.
  std::string r = "netfabric progress report\n";
  std::uint64_t posted = 0, delivered = 0, errored = 0, aborted = 0;
  for (const auto& shp : shards_) {
    posted += shp->posted;
    delivered += shp->delivered;
    errored += shp->errored;
    aborted += shp->aborted;
  }
  r += "  posted=" + std::to_string(posted) +
       " delivered=" + std::to_string(delivered) +
       " errored=" + std::to_string(errored) +
       " aborted=" + std::to_string(aborted) + "\n";
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const Shard& sh = *shards_[si];
    if (sh.flows_active == 0) continue;
    r += "  shard " + std::to_string(si) + ": flows_active=" +
         std::to_string(sh.flows_active) + "\n";
    for (const auto& fp : sh.slab) {
      const MsgFlow& f = *fp;
      // Every acquired flow is a flow that has not terminated — exactly
      // the set the watchdog wants on record (a flow mid-RTO-handler has
      // no pending events and no armed timer, but it still holds its
      // slab entry).
      if (!f.in_use) continue;
      r += "    flow " + std::to_string(f.msg.src) + "->" +
           std::to_string(f.msg.dst) + " bytes=" +
           std::to_string(f.msg.bytes) + " attempts=" +
           std::to_string(f.attempts) + " pending=" +
           std::to_string(f.pending) + (f.rto_armed ? " rto" : "") +
           (f.fetching ? " fetching" : "") +
           (f.wire_unresolved > 0 ? " wire" : "") + "\n";
    }
  }
  return r;
}

NetFabric::ChunkPlan NetFabric::chunk_plan(std::uint64_t bytes,
                                           std::uint32_t mtu) {
  const std::uint64_t chunk = std::max<std::uint64_t>(mtu, (bytes + 63) / 64);
  return {chunk, bytes == 0 ? 1 : (bytes + chunk - 1) / chunk};
}

// MNS_HOT: slab push_back is pool warm-up only — a released flow goes on
// the free list and steady state never allocates.
MNS_HOT NetFabric::MsgFlow* NetFabric::acquire_flow(Shard& sh) {
  ++sh.flows_active;
  if (sh.free_list != nullptr) {
    MsgFlow* f = sh.free_list;
    sh.free_list = f->next_free;
    f->next_free = nullptr;
    f->in_use = true;
    return f;
  }
  sh.slab.push_back(std::make_unique<MsgFlow>(*this));
  sh.slab.back()->in_use = true;
  return sh.slab.back().get();
}

void NetFabric::release_flow(MsgFlow& f) {
  Shard& sh = *f.shard;
  MNS_AUDIT(sh.flows_active > 0, "flow released with none active");
  MNS_AUDIT(f.pending == 0 && !f.rto_armed,
            "flow released with packet events or a retransmit timer live");
  MNS_AUDIT(f.wire_unresolved == 0,
            "flow released with packets still unresolved on the wire");
  --sh.flows_active;
  f.in_use = false;
  if (f.flow_key != 0) sh.wire_flows.erase(f.flow_key);
  f.flow_key = 0;
  f.msg = NetMsg{};  // drop per-message closures eagerly
  f.next_free = sh.free_list;
  sh.free_list = &f;
}

void NetFabric::init_flow(MsgFlow& f, NetMsg msg) {
  f.msg = std::move(msg);
  const ChunkPlan plan = chunk_plan(f.msg.bytes, nic_.mtu);
  f.chunk = plan.chunk;
  f.packets = plan.packets;
  f.packets_left_tx = plan.packets;
  f.packets_left = plan.packets;
  f.first_packet = true;
  f.local_fired = false;
  f.fetching = false;
  f.rto_armed = false;
  f.lost = 0;
  f.corrupt_mask = 0;
  f.resend_mask = 0;
  f.pending = 0;
  f.attempts = 0;

  const int src = f.msg.src;
  const int dst = f.msg.dst;
  f.eng = node_eng_[static_cast<std::size_t>(src)];
  f.shard = &shard_of_node(src);
  f.rx_half = false;
  f.boundary = is_boundary(src, dst);
  f.drop_mask = 0;
  f.rx_discard = 0;
  f.wire_unresolved = 0;
  if (f.boundary) {
    // Key = src << 48 | per-source sequence (pre-incremented: never 0).
    f.flow_key = (static_cast<std::uint64_t>(src) << 48) |
                 ++flow_seq_[static_cast<std::size_t>(src)];
    f.shard->wire_flows.emplace(f.flow_key, &f);
  } else {
    f.flow_key = 0;
  }
  f.faulted = injector_ != nullptr && injector_->link_armed(src, dst);
  f.tx = tx_[static_cast<std::size_t>(src)].get();
  f.stage_src = staging_pipe(src, f.msg);
  f.nhops = src != dst ? topo_->hops(src, dst, f.hops) : 0;
  f.stage_dst = staging_pipe(dst, f.msg);
  f.nic_rx_proc =
      nic_.shared_processor ? nic_proc_[static_cast<std::size_t>(dst)].get()
                            : nullptr;
  f.rx = rx_[static_cast<std::size_t>(dst)].get();
  f.dst_bus = &nodes_[static_cast<std::size_t>(dst)]->bus().pipe();
}

sim::Task<void> NetFabric::sender_loop(int node_id) {
  auto& queue = *sendq_[static_cast<std::size_t>(node_id)];
  auto& bus = nodes_[static_cast<std::size_t>(node_id)]->bus();
  sim::Engine& eng = *node_eng_[static_cast<std::size_t>(node_id)];
  for (;;) {
    NetMsg msg = co_await queue.receive();
    if (fail_stop_armed_) {
      // Degradation fast path: once a retry exhaustion has been
      // attributed to a permanent failure (learn_link_dead), subsequent
      // messages on the dead link do not re-run the whole retry cycle.
      // They pay the fabric's bounded degradation cost (IB reconnect
      // backoff, GM route probe, Elan escalation) and terminate as
      // `aborted` — delivered-or-errored holds for every flow, and the
      // sender NIC is freed for healthy traffic instead of burning its
      // protocol processor on a dead peer.
      Shard& sh = shard_of_node(node_id);
      const std::size_t li = link_index(msg.src, msg.dst);
      if (!sh.dead.empty() && sh.dead[li] != 0) {
        const std::uint32_t round = ++sh.degrade_round[li];
        const sim::Time d = degrade_delay(msg, static_cast<int>(round));
        if (d > sim::Time::zero()) co_await eng.delay(d);
        abort_degraded(std::move(msg));
        continue;
      }
    }
    if (nic_.shared_processor) {
      // One protocol processor handles send and receive events: the
      // per-message send work competes with incoming-message work.
      co_await nic_proc_[static_cast<std::size_t>(node_id)]->occupy(
          tx_setup(msg));
    } else {
      co_await eng.delay(tx_setup(msg));
    }
    const sim::Time stall = tx_stall(msg);
    if (stall > sim::Time::zero()) {
      co_await tx_pipe(node_id).occupy(stall);
    }

    MsgFlow& f = *acquire_flow(shard_of_node(node_id));
    init_flow(f, std::move(msg));
    // Closed-loop injection: each packet is fetched across the host bus
    // before the next, so concurrent senders on this node interleave at
    // packet granularity and per-pair ordering is preserved.
    f.fetching = true;  // retransmit timers wait for the fetch chain
    for (std::uint64_t p = 0; p < f.packets; ++p) {
      co_await bus.dma(f.pkt_bytes(p));
      // Launch through the event queue at now, exactly where the old
      // per-packet coroutine spawn started.
      ++f.pending;
      eng.at(eng.now(), sim::EventFn(&MsgFlow::thunk, &f,
                                     MsgFlow::word(MsgFlow::kLaunch, p)));
    }
    f.fetching = false;
    // `f` may already be recycled past this point; never touch it here.
  }
}

void NetFabric::flow_step(MsgFlow& f, std::uintptr_t w) {
  const auto kind = static_cast<std::uint8_t>(w & 0xffu);
  const std::uint64_t p = w >> 8;
  const std::uint64_t pkt = f.pkt_bytes(p);

  if (kind <= MsgFlow::kBus) {
    // Packet-machine event landed; the retransmit timer counts these to
    // know when a resend round has fully drained.
    MNS_AUDIT(f.pending > 0, "packet event fired with zero pending");
    --f.pending;
  }

  auto sched = [&](std::uint8_t k, std::uint64_t pp, sim::Time t) {
    if (k <= MsgFlow::kBus) ++f.pending;
    f.eng->at(t, sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(k, pp)));
  };

  // Stage chaining shared by several completion events below; each helper
  // performs the next reservation and schedules its completion event. An
  // rx half routes its rx reservations through rx_half_reserve_rx, which
  // additionally decides the packet's fate and reports losses.
  auto enter_rx = [&] {
    if (f.first_packet) {
      f.first_packet = false;
      const sim::Time stall = rx_stall(f.msg) + nic_.per_msg_rx_setup;
      if (f.nic_rx_proc != nullptr) {
        // Receive-side per-message work runs on the shared protocol
        // processor (contending with sends), then the data crosses rx.
        sched(MsgFlow::kRxProc, p, f.nic_rx_proc->reserve_after(stall, 0));
      } else {
        // Stall + first-packet data as one atomic reservation, so packets
        // of other messages cannot be reordered into the gap.
        const sim::Time done = f.rx->reserve_after(stall, pkt);
        if (f.rx_half) {
          rx_half_reserve_rx(f, p, done);
        } else {
          sched(MsgFlow::kRx, p, done);
        }
      }
    } else {
      const sim::Time done = f.rx->reserve(pkt);
      if (f.rx_half) {
        rx_half_reserve_rx(f, p, done);
      } else {
        sched(MsgFlow::kRx, p, done);
      }
    }
  };
  auto enter_dst = [&] {
    if (f.stage_dst != nullptr) {
      sched(MsgFlow::kDstStage, p, f.stage_dst->reserve(pkt));
    } else {
      enter_rx();
    }
  };
  auto enter_switch = [&] {
    if (f.nhops > 0) {
      sched(MsgFlow::kHop0, p, f.hops[0]->reserve(pkt));
    } else {
      enter_dst();
    }
  };

  switch (kind) {
    case MsgFlow::kLaunch: {
      const sim::Time t_tx = f.tx->reserve(pkt);
      sched(MsgFlow::kTx, p, t_tx);
      // Boundary flows draw their fault verdict and announce the switch
      // entry here, where the tx completion instant is already known
      // (the wire message needs lookahead slack the kTx event lacks).
      if (f.boundary) launch_boundary_packet(f, p, t_tx);
      break;
    }
    case MsgFlow::kTx:
      if (--f.packets_left_tx == 0) {
        // Last byte has left the sender NIC: eager sends complete here.
        // (Fabric-level retransmissions below are invisible to the host,
        // like a real NIC's reliability engine.)
        if (!f.msg.complete_on_delivery && f.msg.local_complete &&
            !f.local_fired) {
          f.local_fired = true;
          f.msg.local_complete.invoke();
        }
      }
      if (f.boundary) {
        // Tx half of a split flow: the verdict was drawn at launch.
        if (f.drop_mask & (std::uint64_t{1} << p)) {
          f.drop_mask &= ~(std::uint64_t{1} << p);
          // Vanishes at the sender NIC, at exactly the sequential
          // machine's drop instant; the flagged ENTER already told the
          // receiver about the gap.
          lose_packet(f, p);
          break;
        }
        if (f.stage_src != nullptr) {
          // Deferred ENTER (see launch_boundary_packet): reserve source
          // staging here — where the shared send/receive queue is final
          // up to t_tx and the sequential machine's own reserve sits —
          // and announce the staging completion as the switch entry.
          const std::uint64_t bit = std::uint64_t{1} << p;
          std::uint64_t flags = 0;
          if (f.corrupt_mask & bit) {
            flags = kWireFlagCorrupt;
            f.corrupt_mask &= ~bit;  // flag travels on the wire
          }
          ++f.wire_unresolved;
          exec_->send(f.msg.src, f.msg.dst, f.stage_src->reserve(pkt),
                      wire_word(kWireEnter, p, f.attempts) | flags,
                      f.flow_key);
        }
        break;  // the rx half takes over at the switch entry
                // (the ENTER left at launch or just above)
      }
      if (f.faulted) {
        // The packet has consumed injection bandwidth; now the fault plan
        // decides its fate on the wire.
        const fault::Verdict v =
            injector_->packet_verdict(f.msg.src, f.msg.dst, f.eng->now());
        if (v == fault::Verdict::kDrop) {
          ++f.shard->faults_drop;
          lose_packet(f, p);
          break;  // vanishes at the sender NIC: nothing enters the switch
        }
        if (v == fault::Verdict::kCorrupt) {
          // Corrupt packets travel the full path (burning switch and rx
          // bandwidth) and fail their CRC at the receiver (kRx below).
          ++f.shard->faults_corrupt;
          f.corrupt_mask |= std::uint64_t{1} << p;
        }
      }
      if (f.stage_src != nullptr) {
        sched(MsgFlow::kSrcStage, p, f.stage_src->reserve(pkt));
      } else {
        enter_switch();
      }
      break;
    case MsgFlow::kSrcStage:
      enter_switch();
      break;
    case MsgFlow::kHop0:
    case MsgFlow::kHop1:
    case MsgFlow::kHop2: {
      const int h = kind - MsgFlow::kHop0 + 1;
      if (h < f.nhops) {
        sched(static_cast<std::uint8_t>(MsgFlow::kHop0 + h), p,
              f.hops[h]->reserve(pkt));
      } else {
        enter_dst();
      }
      break;
    }
    case MsgFlow::kDstStage:
      enter_rx();
      break;
    case MsgFlow::kRxProc: {
      const sim::Time done = f.rx->reserve(pkt);
      if (f.rx_half) {
        rx_half_reserve_rx(f, p, done);
      } else {
        sched(MsgFlow::kRx, p, done);
      }
      break;
    }
    case MsgFlow::kRx:
      if (f.rx_half) {
        // Fate was decided (and any loss reported) at the reservation;
        // this event applies it at the sequential detection instant.
        if (f.rx_discard & (std::uint64_t{1} << p)) {
          f.rx_discard &= ~(std::uint64_t{1} << p);
          f.corrupt_mask &= ~(std::uint64_t{1} << p);
          break;  // discarded; recovery runs on the tx half
        }
        // Survivor: report the landing with its host-bus completion
        // instant (the per-DMA setup is the lookahead slack).
        const sim::Time done = f.dst_bus->reserve(pkt);
        exec_->send(f.msg.dst, f.msg.src, done,
                    wire_word(kWireLand, p, f.attempts), f.flow_key);
        sched(MsgFlow::kBus, p, done);
        break;
      }
      if (f.faulted) {
        if (f.corrupt_mask & (std::uint64_t{1} << p)) {
          // CRC failure detected at the receiver NIC: discard.
          f.corrupt_mask &= ~(std::uint64_t{1} << p);
          lose_packet(f, p);
          break;
        }
        if (recovery_.protocol == RecoveryConfig::Protocol::kGoBackN &&
            p > 0 && (f.lost & ((std::uint64_t{1} << p) - 1)) != 0) {
          // Go-Back-N: an earlier packet of this message is missing, so
          // the firmware's sequence check rejects this one — only the
          // cumulative prefix is ever acknowledged. The sender will
          // resend the whole window from the gap.
          ++f.shard->gbn_discards;
          lose_packet(f, p);
          break;
        }
      }
      sched(MsgFlow::kBus, p, f.dst_bus->reserve(pkt));
      break;
    case MsgFlow::kBus:
      if (--f.packets_left == 0) {
        if (f.rx_half) {
          finish_boundary_delivery(f);
        } else {
          deliver(f);
        }
      }
      break;

    case MsgFlow::kRto:
      f.rto_armed = false;
      if (f.pending > 0 || f.fetching || f.wire_unresolved > 0) {
        // Packets of the current round are still moving (or still being
        // fetched); check again after another timeout.
        arm_rto(f);
        break;
      }
      MNS_AUDIT(f.lost != 0, "retransmit timer fired with nothing lost");
      ++f.attempts;
      if (f.attempts > watchdog_rounds_) {
        // Progress watchdog: a flow burned through more retransmit
        // rounds than any sane retry budget allows (misconfigured
        // budget meeting a dead component = RTO storm). Fail cleanly
        // with a diagnostic instead of spinning forever.
        throw sim::LivelockError(progress_report());
      }
      if (f.attempts > recovery_.retry_budget) {
        fail_flow(f);
        break;
      }
      resend_lost(f);
      arm_rto(f);
      break;

    case MsgFlow::kResendBatch: {
      // Fused resend round: launch every owed packet in ascending order,
      // exactly the sequence the per-packet kLaunch events produced. The
      // --pending stands in for each replaced launch event's own firing.
      std::uint64_t m = std::exchange(f.resend_mask, 0);
      MNS_AUDIT(m != 0, "resend batch fired with an empty mask");
      while (m != 0) {
        const auto q = static_cast<std::uint64_t>(std::countr_zero(m));
        m &= m - 1;
        MNS_AUDIT(f.pending > 0, "resend batch with zero pending");
        --f.pending;
        const sim::Time t_tx = f.tx->reserve(f.pkt_bytes(q));
        sched(MsgFlow::kTx, q, t_tx);
        // Resent boundary packets re-announce themselves with the bumped
        // attempt number; the rx half resets its loss mirror on seeing it.
        if (f.boundary) launch_boundary_packet(f, q, t_tx);
      }
      break;
    }

  }
}

void NetFabric::deliver(MsgFlow& f) {
  if (f.rto_armed) {
    // The happy-path cancel: the whole message made it, retire the
    // retransmit timer (frees its boxed-closure-free payload in place).
    f.eng->cancel(f.rto_id);
    f.rto_armed = false;
  }
  MNS_AUDIT(f.lost == 0 && f.corrupt_mask == 0,
            "message delivered with packets still marked lost");
  ++f.shard->delivered;
  if (nic_.ack_processing > sim::Time::zero() && f.msg.src != f.msg.dst) {
    // Delivery ack returns to the source NIC and occupies its protocol
    // processor while the send token is retired.
    f.eng->spawn([](NetFabric& self, sim::Engine& eng,
                    int src) -> sim::Task<void> {
      co_await eng.delay(self.nic_.ack_delay);
      co_await self.nic_proc(src).occupy(self.nic_.ack_processing);
    }(*this, *f.eng, f.msg.src), /*daemon=*/true);
  }
  on_delivered(f.msg);
  if (f.msg.complete_on_delivery && f.msg.local_complete) {
    f.msg.local_complete.invoke();
  }
  if (f.msg.remote_arrival) f.msg.remote_arrival.invoke();
  release_flow(f);
}

void NetFabric::finish_boundary_delivery(MsgFlow& f) {
  // Rx half: the last packet reached destination memory. The tx half
  // hears about it through this packet's LAND message and runs the
  // sender-side delivery duties (timer cancel, ack, completion
  // callbacks) at the same instant in wire_land.
  MNS_AUDIT(f.lost == 0 && f.corrupt_mask == 0 && f.rx_discard == 0,
            "rx half delivered with packets still marked lost");
  if (f.msg.remote_arrival) f.msg.remote_arrival.invoke();
  release_flow(f);
}

// ---------------------------------------------------------------------------
// Recovery machine. A lost packet (drop verdict, CRC failure, or Go-Back-N
// sequence rejection) sets its bit in f.lost and arms a per-flow
// retransmit timer at the source NIC. When the timer fires with no packet
// of the flow still in flight, the lost set is resent (one more attempt);
// when the retry budget is exhausted the flow surfaces an error to the
// device instead and is retired. Conservation (audited):
//   faults_drop_ + faults_corrupt_ + gbn_discards_
//     == packets_retransmitted_ + packets_abandoned_
// ---------------------------------------------------------------------------

void NetFabric::lose_packet(MsgFlow& f, std::uint64_t p) {
  f.lost |= std::uint64_t{1} << p;
  arm_rto(f);
}

void NetFabric::arm_rto(MsgFlow& f) {
  if (f.rto_armed) return;
  f.rto_id = f.eng->at_cancellable(
      f.eng->now() + rto_delay(f),
      sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(MsgFlow::kRto, 0)));
  f.rto_armed = true;
}

sim::Time NetFabric::rto_delay(const MsgFlow& f) const {
  sim::Time d = recovery_.rto;
  if (recovery_.backoff_cap > sim::Time::zero()) {
    // Bounded exponential backoff (Elan hardware retry): rto, 2*rto, ...
    // capped. The other protocols keep a fixed timeout.
    for (int i = 0; i < f.attempts && d < recovery_.backoff_cap; ++i) {
      d = d * 2;
    }
    if (d > recovery_.backoff_cap) d = recovery_.backoff_cap;
  }
  return d;
}

void NetFabric::resend_lost(MsgFlow& f) {
  MNS_AUDIT(f.lost != 0, "resend round with an empty lost set");
  MNS_AUDIT(f.resend_mask == 0, "overlapping resend rounds");
  // IB RC / Elan resend exactly the lost packets; GM's Go-Back-N window —
  // everything from the first gap onward — is already what the lost set
  // holds, because the receiver rejected the whole post-gap tail.
  const auto n = static_cast<std::uint64_t>(std::popcount(f.lost));
  f.resend_mask = f.lost;
  f.lost = 0;
  f.shard->retransmitted += n;
  // The retransmitted copies re-cross the tx stage, so the tx-drain
  // counter must see them (already decremented on the lost pass). The
  // pending count carries the batch event standing in for the launches.
  f.packets_left_tx += n;
  f.pending += static_cast<std::uint32_t>(n);
  // One event relaunches the whole round (see Kind::kResendBatch); a
  // 64-packet Go-Back-N storm schedules 1 now-queue entry instead of 64.
  f.eng->at(f.eng->now(), sim::EventFn(&MsgFlow::thunk, &f,
                                       MsgFlow::word(MsgFlow::kResendBatch,
                                                     0)));
}

void NetFabric::fail_flow(MsgFlow& f) {
  // Retry budget exhausted: surface the transport error (IB QP error / GM
  // give-up / Elan retry exhaustion) to the device and retire the flow.
  const auto abandoned = static_cast<std::uint64_t>(std::popcount(f.lost));
  MNS_AUDIT(abandoned == f.packets_left,
            "abandoned flow with undelivered packets not in the lost set");
  f.shard->abandoned += abandoned;
  f.lost = 0;
  ++f.shard->errored;
  if (fail_stop_armed_ && injector_ &&
      injector_->link_dead(f.msg.src, f.msg.dst, f.eng->now())) {
    // Attribution: the budget ran out against a permanently dead
    // link/NIC, not a lossy one. Teach this sender's shard so later
    // messages on the link take the bounded degradation fast path
    // instead of re-running the whole retry cycle.
    learn_link_dead(*f.shard, f.msg.src, f.msg.dst);
  }
  if (f.boundary) {
    // Tear down the rx half one lookahead out (every wire packet is
    // already resolved — the timer never fires with packets in flight).
    exec_->send(f.msg.src, f.msg.dst,
                f.eng->now() + exec_->topology().lookahead,
                wire_word(kWireClose, 0, 0), f.flow_key);
  }
  on_aborted(f.msg);
  if (f.msg.on_failed) f.msg.on_failed.invoke();
  release_flow(f);
}

// ---------------------------------------------------------------------------
// Split-flow protocol implementation (see the file comment for the
// message contract and the equivalence argument).
// ---------------------------------------------------------------------------

void NetFabric::launch_boundary_packet(MsgFlow& f, std::uint64_t p,
                                       sim::Time t_tx) {
  const std::uint64_t bit = std::uint64_t{1} << p;
  std::uint64_t flags = 0;
  if (f.faulted) {
    // Verdict relocated from tx completion to launch, passing the
    // explicit tx-completion timestamp: same per-link draw order (the
    // FIFO tx pipe makes launch order equal completion order) and the
    // same draw instants as the sequential kTx-time draw.
    const fault::Verdict v =
        injector_->packet_verdict(f.msg.src, f.msg.dst, t_tx);
    if (v == fault::Verdict::kDrop) {
      ++f.shard->faults_drop;
      f.drop_mask |= bit;
      flags |= kWireFlagDropped;
    } else if (v == fault::Verdict::kCorrupt) {
      ++f.shard->faults_corrupt;
      f.corrupt_mask |= bit;
      flags |= kWireFlagCorrupt;
    }
  }
  if (p == 0 && f.attempts == 0) {
    // First packet of the first attempt: ship the flow descriptor. Same
    // timestamp as the first ENTER; the earlier send index makes it sort
    // first in the delivery batch.
    // One descriptor per boundary message (not per packet); crosses to
    // the rx half and is freed there.
    // simlint-allow: model-alloc
    auto box = std::make_unique<OpenBox>();  // simcheck-allow: hot-alloc
    box->msg.src = f.msg.src;
    box->msg.dst = f.msg.dst;
    box->msg.bytes = f.msg.bytes;
    box->msg.src_addr = f.msg.src_addr;
    box->msg.dst_addr = f.msg.dst_addr;
    box->msg.complete_on_delivery = f.msg.complete_on_delivery;
    // The receiver-side callback crosses with the descriptor; the
    // sender-side closures stay with the tx half.
    box->msg.remote_arrival = std::move(f.msg.remote_arrival);
    box->chunk = f.chunk;
    box->packets = f.packets;
    box->faulted = f.faulted;
    exec_->send(f.msg.src, f.msg.dst, t_tx, wire_word(kWireOpen, 0, 0),
                f.flow_key, 0, static_cast<WireBox*>(box.release()));
  }
  if (flags & kWireFlagDropped) {
    // The gap announcement: the packet never enters the switch, but the
    // receiver's Go-Back-N sequence check must see it missing.
    exec_->send(f.msg.src, f.msg.dst, t_tx,
                wire_word(kWireEnter, p, f.attempts) | flags, f.flow_key);
    return;
  }
  if (f.stage_src != nullptr) {
    // Staged fabrics: the switch-entry instant is the source-staging
    // completion, and the staging pipe is shared with this node's
    // receive side (the Fig. 5 bi-directional bottleneck), whose
    // reservations land at their own event instants. Reserving staging
    // here at launch would jump the queue ahead of any receive staged
    // between launch and t_tx, reordering the shared FIFO against the
    // sequential machine. The reservation and the ENTER are therefore
    // deferred to this packet's kTx event, where the queue is final up
    // to t_tx and the sequential machine's own reserve sits. A corrupt
    // verdict stays in corrupt_mask until that send. The cost: the
    // deferred ENTER departs with only the packet's staging
    // serialization of slack, so the executor lookahead is floored at
    // one byte's staging time for staged fabrics (see Cluster).
    return;
  }
  ++f.wire_unresolved;
  if (flags != 0) f.corrupt_mask &= ~bit;  // flag travels on the wire
  // Switch entry instant: the tx completion. The ENTER departs with
  // >= tx_wire_latency of lookahead slack (t_tx >= now + wire latency),
  // which a kTx-time send could not guarantee.
  exec_->send(f.msg.src, f.msg.dst, t_tx,
              wire_word(kWireEnter, p, f.attempts) | flags, f.flow_key);
}

void NetFabric::rx_half_reserve_rx(MsgFlow& f, std::uint64_t p,
                                   sim::Time done) {
  // The packet's fate is a pure function of state stable by reservation
  // time (see the file comment), so it is decided here — one stage ahead
  // of the sequential machine — and any loss is reported with the exact
  // detection instant while there is still >= rx_fixed of slack.
  const std::uint64_t bit = std::uint64_t{1} << p;
  if (f.faulted) {
    bool discard = false;
    if (f.corrupt_mask & bit) {
      discard = true;  // CRC failure, applied at kRx
    } else if (recovery_.protocol == RecoveryConfig::Protocol::kGoBackN &&
               p > 0 && (f.lost & (bit - 1)) != 0) {
      discard = true;
      ++f.shard->gbn_discards;
    }
    if (discard) {
      f.rx_discard |= bit;
      f.lost |= bit;  // later packets' sequence checks see this gap
      exec_->send(f.msg.dst, f.msg.src, done,
                  wire_word(kWireLoss, p, f.attempts), f.flow_key);
    }
  }
  ++f.pending;
  f.eng->at(done,
            sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(MsgFlow::kRx, p)));
}

void NetFabric::wire_handle(int node, const sim::pdes::WireMsg& m) {
  switch (m.a & 0xffu) {
    case kWireOpen:
      wire_open(node, m);
      break;
    case kWireEnter:
      wire_enter(node, m);
      break;
    case kWireLoss:
      wire_loss(m);
      break;
    case kWireLand:
      wire_land(m);
      break;
    case kWireClose:
      wire_close(m);
      break;
    case kWireCall: {
      std::unique_ptr<CallBox> box(
          static_cast<CallBox*>(static_cast<WireBox*>(m.box)));
      box->fn();
      break;
    }
    default:
      throw std::logic_error("NetFabric: unknown wire message kind");
  }
}

void NetFabric::wire_open(int dst, const sim::pdes::WireMsg& m) {
  std::unique_ptr<OpenBox> box(
      static_cast<OpenBox*>(static_cast<WireBox*>(m.box)));
  Shard& sh = shard_of_node(dst);
  MsgFlow& f = *acquire_flow(sh);
  f.msg = std::move(box->msg);
  f.chunk = box->chunk;
  f.packets = box->packets;
  f.faulted = box->faulted;
  f.eng = node_eng_[static_cast<std::size_t>(dst)];
  f.shard = &sh;
  f.boundary = false;
  f.rx_half = true;
  f.flow_key = m.b;
  f.drop_mask = 0;
  f.rx_discard = 0;
  f.wire_unresolved = 0;
  f.packets_left_tx = 0;
  f.packets_left = f.packets;
  f.first_packet = true;
  f.local_fired = false;
  f.fetching = false;
  f.rto_armed = false;
  f.lost = 0;
  f.corrupt_mask = 0;
  f.resend_mask = 0;
  f.pending = 0;
  f.attempts = 0;  // reused as the attempt the mirror state describes
  // Destination-owned stages only; the tx half keeps the rest.
  f.tx = nullptr;
  f.stage_src = nullptr;
  f.nhops = topo_->hops(f.msg.src, dst, f.hops);
  f.stage_dst = staging_pipe(dst, f.msg);
  f.nic_rx_proc =
      nic_.shared_processor ? nic_proc_[static_cast<std::size_t>(dst)].get()
                            : nullptr;
  f.rx = rx_[static_cast<std::size_t>(dst)].get();
  f.dst_bus = &nodes_[static_cast<std::size_t>(dst)]->bus().pipe();
  sh.wire_flows.emplace(f.flow_key, &f);
}

void NetFabric::wire_enter(int dst, const sim::pdes::WireMsg& m) {
  MsgFlow& f = *shard_of_node(dst).wire_flows.at(m.b);
  const std::uint64_t p = wire_packet(m.a);
  const std::uint64_t bit = std::uint64_t{1} << p;
  const int attempt = wire_attempt(m.a);
  if (attempt > f.attempts) {
    // First packet of a resend round: the sender cleared its lost set
    // when it queued the round, so the mirror starts the attempt clean.
    f.attempts = attempt;
    f.lost = 0;
  }
  if (m.a & kWireFlagDropped) {
    // Dropped at the sender NIC: nothing enters the switch, but the gap
    // gates later packets' Go-Back-N fates.
    f.lost |= bit;
    return;
  }
  if (m.a & kWireFlagCorrupt) f.corrupt_mask |= bit;
  // This handler runs at the exact instant the sequential machine would
  // reserve the switch port (the dst-owned pipe), so the reservation and
  // everything downstream replays identically.
  ++f.pending;
  f.eng->at(
      f.hops[0]->reserve(f.pkt_bytes(p)),
      sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(MsgFlow::kHop0, p)));
}

void NetFabric::wire_loss(const sim::pdes::WireMsg& m) {
  // Back on the tx half's partition, at the exact sequential detection
  // instant: account the packet as lost and arm the retransmit timer.
  MsgFlow& f = *shard_of_node(m.dst_node).wire_flows.at(m.b);
  MNS_AUDIT(f.wire_unresolved > 0, "LOSS for a flow with nothing on wire");
  --f.wire_unresolved;
  lose_packet(f, wire_packet(m.a));
}

void NetFabric::wire_land(const sim::pdes::WireMsg& m) {
  MsgFlow& f = *shard_of_node(m.dst_node).wire_flows.at(m.b);
  MNS_AUDIT(f.wire_unresolved > 0, "LAND for a flow with nothing on wire");
  --f.wire_unresolved;
  MNS_AUDIT(f.packets_left > 0, "LAND after the last packet");
  if (--f.packets_left != 0) return;
  // Last packet reached destination memory: this instant is the
  // sequential deliver(), minus the receiver-side duties the rx half
  // performed in finish_boundary_delivery at the same timestamp.
  if (f.rto_armed) {
    f.eng->cancel(f.rto_id);
    f.rto_armed = false;
  }
  MNS_AUDIT(f.lost == 0 && f.corrupt_mask == 0,
            "message delivered with packets still marked lost");
  ++f.shard->delivered;
  if (nic_.ack_processing > sim::Time::zero()) {
    // Delivery ack returns to the source NIC and occupies its protocol
    // processor while the send token is retired (boundary flows are
    // never loopback, so the ack always exists when configured).
    f.eng->spawn([](NetFabric& self, sim::Engine& eng,
                    int src) -> sim::Task<void> {
      co_await eng.delay(self.nic_.ack_delay);
      co_await self.nic_proc(src).occupy(self.nic_.ack_processing);
    }(*this, *f.eng, f.msg.src), /*daemon=*/true);
  }
  on_delivered(f.msg);
  if (f.msg.complete_on_delivery && f.msg.local_complete) {
    f.msg.local_complete.invoke();
  }
  release_flow(f);
}

void NetFabric::wire_close(const sim::pdes::WireMsg& m) {
  // The tx half's recovery gave up; dissolve the rx half. Its event
  // pipeline is already drained: the sender's timer only exhausts the
  // budget with every wire packet resolved, and every resolution message
  // postdates the rx half's last event for that packet.
  MsgFlow& f = *shard_of_node(m.dst_node).wire_flows.at(m.b);
  f.lost = 0;
  f.corrupt_mask = 0;
  f.rx_discard = 0;
  f.packets_left = 0;
  release_flow(f);
}

void NetFabric::set_fault_plan(const fault::FaultPlan& plan) {
  if (plan.empty()) return;  // keeps the data path bit-identical
  injector_ = std::make_unique<fault::Injector>(plan, nodes_.size());
  // Fail-stop clauses arm the degradation machinery. Transient-only
  // plans leave fail_stop_armed_ false, so the sender_loop fast path
  // and the collectives' agreement epilogue stay compiled-out at run
  // time and the existing chaos matrices remain bit-identical.
  fail_stop_armed_ = plan.has_fail_stop();
  if (fail_stop_armed_) {
    // Pre-size every shard's dead-link registry here (construction time,
    // cold) so learn_link_dead and the sender-loop fast path never
    // allocate on the simulation's hot path.
    const std::size_t n2 = nodes_.size() * nodes_.size();
    for (auto& shp : shards_) {
      shp->dead.assign(n2, 0);
      shp->degrade_round.assign(n2, 0);
    }
  }
  for (const fault::LinkDownSpec& ld : plan.link_downs()) {
    auto bad = [&](int n) {
      return n != fault::kAnyNode &&
             (n < 0 || static_cast<std::size_t>(n) >= nodes_.size());
    };
    if (bad(ld.src) || bad(ld.dst)) {
      throw std::invalid_argument(
          "FaultPlan: linkdown " + std::to_string(ld.src) + "-" +
          std::to_string(ld.dst) + " but the fabric has " +
          std::to_string(nodes_.size()) + " nodes");
    }
  }
  for (const fault::NicDownSpec& nd : plan.nic_downs()) {
    if (nd.node < 0 || static_cast<std::size_t>(nd.node) >= nodes_.size()) {
      throw std::invalid_argument(
          "FaultPlan: nicdown on node " + std::to_string(nd.node) +
          " but the fabric has " + std::to_string(nodes_.size()) + " nodes");
    }
  }
  for (const fault::NicStallSpec& st : injector_->nic_stalls()) {
    if (st.node < 0 || static_cast<std::size_t>(st.node) >= nodes_.size()) {
      throw std::invalid_argument(
          "FaultPlan: NIC stall on node " + std::to_string(st.node) +
          " but the fabric has " + std::to_string(nodes_.size()) + " nodes");
    }
    Pipe* tx = tx_[static_cast<std::size_t>(st.node)].get();
    Pipe* rx = rx_[static_cast<std::size_t>(st.node)].get();
    const sim::Time dur = st.duration;
    // Scheduled on the stalled node's owning engine: its NIC pipes are
    // that partition's state.
    sim::Engine& ne = *node_eng_[static_cast<std::size_t>(st.node)];
    // The stall is pure occupancy on both DMA engines.
    ne.at(st.at, [tx, rx, dur] {
      tx->reserve_after(dur, 0);
      rx->reserve_after(dur, 0);
    });
    // Keep the engine running past the stall window so the finalize
    // "pipes idle" audit sees the occupancy expire.
    ne.at(st.at + dur, [] {});
  }
}

void NetFabric::post_switch_broadcast(int src, std::uint64_t bytes,
                                      sim::Time extra_setup,
                                      // simlint-allow: model-alloc (per-broadcast)
                                      std::function<void()> on_delivered) {
  if (partitions_ > 1) {
    // Devices with hardware broadcast demote the partition plan before
    // the fabric is built (the replication legs fan out across every
    // node's pipes in one coroutine — there is no owning partition).
    throw std::logic_error(
        "switch broadcast requires sequential execution; hardware-"
        "broadcast devices must demote the partition plan");
  }
  ++shard_of_node(src).bcasts_posted;
  auto task = [](NetFabric& self, int src, std::uint64_t bytes,
                 sim::Time extra_setup,
                 // simlint-allow: model-alloc (per-broadcast callback)
                 std::function<void()> on_delivered) -> sim::Task<void> {
    co_await self.eng_->delay(self.nic_.per_msg_setup + extra_setup);

    // Legs replicate per chunk at the same pipelining granularity as
    // unicast messages (they used to move the full payload as one
    // un-chunked transfer, bypassing the 64-chunk cap).
    const ChunkPlan plan = chunk_plan(bytes, self.nic_.mtu);
    const std::size_t peers = self.node_count() - 1;

    struct Fanout {
      std::size_t remaining;
      sim::Trigger done;
      Fanout(sim::Engine& e, std::size_t n) : remaining(n), done(e) {}
    };
    auto fan = std::make_shared<Fanout>(  // simlint-allow: model-alloc
        *self.eng_, plan.packets * std::max<std::size_t>(peers, 1));

    auto leg = [](NetFabric& self, int src, int dst, std::uint64_t pkt,
                  std::shared_ptr<Fanout> fan) -> sim::Task<void> {
      co_await self.topo_->route(src, dst, pkt);
      co_await self.rx_pipe(dst).transfer(pkt);
      co_await self.node(dst).bus().dma(pkt);
      if (--fan->remaining == 0) fan->done.fire();
    };
    auto chunk_tail = [](NetFabric& self, int src, std::uint64_t pkt,
                         std::size_t peers, std::shared_ptr<Fanout> fan,
                         auto leg) -> sim::Task<void> {
      co_await self.tx_pipe(src).transfer(pkt);
      if (peers == 0) {
        // Single-node fabric: the broadcast "lands" once injected.
        if (--fan->remaining == 0) fan->done.fire();
        co_return;
      }
      for (std::size_t d = 0; d < self.node_count(); ++d) {
        if (static_cast<int>(d) == src) continue;
        self.eng_->spawn(leg(self, src, static_cast<int>(d), pkt, fan),
                         /*daemon=*/true);
      }
    };

    // Closed-loop chunk injection, mirroring the unicast sender.
    std::uint64_t left = bytes;
    for (std::uint64_t p = 0; p < plan.packets; ++p) {
      const std::uint64_t pkt = left < plan.chunk ? left : plan.chunk;
      left -= pkt;
      co_await self.node(src).bus().dma(pkt);
      self.eng_->spawn(chunk_tail(self, src, pkt, peers, fan, leg),
                       /*daemon=*/true);
    }
    co_await fan->done.wait();
    ++self.shard_of_node(src).bcasts_delivered;
    if (on_delivered) on_delivered();
  };
  eng_->spawn(task(*this, src, bytes, extra_setup, std::move(on_delivered)),
              /*daemon=*/true);
}

void NetFabric::register_audits(audit::AuditReport& report) {
  report.add_check("model::NetFabric", [this](audit::AuditReport::Scope& s) {
    s.require_eq(messages_posted(),
                 messages_delivered() + messages_errored() +
                     messages_aborted(),
                 "message(s) posted but neither delivered, surfaced as a "
                 "transport error, nor aborted by degradation");
    s.require_eq(packets_dropped() + packets_corrupted() +
                     packets_gbn_discarded(),
                 packets_retransmitted() + packets_abandoned(),
                 "packet-loss conservation broken: every lost packet must "
                 "be retransmitted or abandoned with its flow");
    s.require_eq(sum(&Shard::bcasts_posted), sum(&Shard::bcasts_delivered),
                 "switch broadcast(s) posted but never completed");
    std::size_t active = 0;
    std::size_t wired = 0;
    for (const auto& sh : shards_) {
      active += sh->flows_active;
      wired += sh->wire_flows.size();
    }
    s.require_eq(active, std::size_t{0},
                 "message flow(s) not recycled at finalize");
    s.require_eq(wired, std::size_t{0},
                 "split-flow half(s) still registered at finalize");
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::string node = "node " + std::to_string(i);
      s.require(tx_[i]->idle(), node + ": tx pipe busy at finalize");
      s.require(rx_[i]->idle(), node + ": rx pipe busy at finalize");
      s.require(nic_proc_[i]->idle(),
                node + ": NIC protocol processor busy at finalize");
      s.require(sendq_[i]->empty(),
                node + ": send queue not drained at finalize");
    }
  });
}

}  // namespace mns::model
