#include "mpi/ch_rdv.hpp"

#include <cstring>

namespace mns::mpi {

namespace {
Status status_of(const Envelope& env) {
  return Status{env.src, env.tag, env.bytes};
}
Status error_status(const Envelope& env) {
  return Status{env.src, env.tag, env.bytes, kErrFabric};
}
}  // namespace

void RdvChannel::gate(Proc& proc, sim::EventFn fn) const {
  if (cfg_.nic_progress) {
    fn.invoke();
  } else {
    proc.host_action(std::move(fn));
  }
}

sim::Time RdvChannel::match_scan_cost(Proc& rp) const {
  // MPICH walks the posted queue linearly; entries beyond the first cost.
  const std::size_t posted = rp.matcher().posted_count();
  return posted > 1
             ? cfg_.o_match_entry * static_cast<std::int64_t>(posted - 1)
             : sim::Time::zero();
}

RdvChannel::RdvChannel(Mpi& mpi, model::NetFabric& fabric,
                       RdvChannelConfig cfg,
                       std::function<model::RegistrationCache&(int)> regcache,
                       std::function<std::uint64_t(int)> memory)
    : mpi_(&mpi),
      fabric_(&fabric),
      cfg_(std::move(cfg)),
      regcache_(std::move(regcache)),
      memory_(std::move(memory)),
      buffered_(fabric),
      rdv_(fabric) {
  shm_.reserve(fabric_->node_count());
  for (std::size_t n = 0; n < fabric_->node_count(); ++n) {
    // Intra-node traffic only ever touches the node's own domain, so each
    // domain lives on the engine owning that node's partition.
    shm_.push_back(std::make_unique<shm::ShmDomain>(
        fabric_->node_engine(static_cast<int>(n)), cfg_.shm));
  }
}

std::uint64_t RdvChannel::memory_bytes(int node) const {
  return memory_(node);
}

void RdvChannel::hw_broadcast(Rank root, std::uint64_t bytes,
                              std::uint64_t /*addr*/,
                              std::function<void()> done) {
  fabric_->post_switch_broadcast(mpi_->node_of(root), bytes,
                                 cfg_.hw_bcast_overhead, std::move(done));
}

RdvChannel::Buffered* RdvChannel::new_buffered(const SendOp& op,
                                               std::uint32_t refs) {
  Buffered* b = buffered_.acquire(mpi_->node_of(op.env.src),
                                  mpi_->node_of(op.env.dst), refs);
  b->env = op.env;
  b->req = op.req;
  b->local_done = false;
  b->cost = sim::Time::zero();
  // Synthetic and empty views carry no bytes: nothing to capture.
  b->payload.clear();
  if (!op.buf.synthetic() && op.buf.bytes() > 0) {
    // simcheck-allow: hot-alloc (real payloads only; the record keeps its capacity)
    b->payload.assign(op.buf.data(), op.buf.data() + op.buf.bytes());
  }
  return b;
}

sim::Task<void> RdvChannel::start_send(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  co_await sp.cpu().busy(cfg_.o_send);
  const bool intra = mpi_->same_node(op.env.src, op.env.dst);
  if (op.synchronous) {
    // MPI_Ssend: the rendezvous handshake IS the synchronization.
    co_await send_rendezvous(std::move(op));
  } else if (intra && op.env.bytes < cfg_.smp_threshold) {
    co_await send_shm(std::move(op));
  } else if (op.env.bytes < cfg_.eager_threshold) {
    co_await send_eager(std::move(op));  // loopback when intra
  } else {
    co_await send_rendezvous(std::move(op));
  }
}

// --- buffered delivery (shared memory and eager) ----------------------------

// Receiver side, host-gated: match the arrival or queue it as unexpected.
void RdvChannel::match_buffered(Buffered* b) {
  auto& rp = mpi_->proc(b->env.dst);
  if (auto pr = rp.matcher().match_arrival(b->env)) {
    // Completion processing runs on the receiving host CPU: concurrent
    // arrivals serialize through the rank's host-work queue.
    rp.cpu().accrue_overhead(b->cost);
    mpi_->engine_of(b->env.dst)
        .spawn(deliver_buffered(rp, b, *pr), /*daemon=*/true);
  } else {
    rp.matcher().add_unexpected(
        {b->env,
         [this, b](PostedRecv pr) { return claim_buffered(b, pr); }});
  }
}

namespace {
void copy_out(const std::vector<std::byte>& payload, const Envelope& env,
              const PostedRecv& pr) {
  if (!pr.buf.synthetic() && !payload.empty()) {
    std::memcpy(pr.buf.data(), payload.data(),
                static_cast<std::size_t>(
                    std::min<std::uint64_t>(env.bytes, pr.buf.bytes())));
  }
}
}  // namespace

sim::Task<void> RdvChannel::deliver_buffered(Proc& rp, Buffered* b,
                                             PostedRecv pr) {
  co_await rp.host_work().occupy(b->cost);
  copy_out(b->payload, b->env, pr);
  pr.req->complete(status_of(b->env));
  release(b);
}

sim::Task<void> RdvChannel::claim_buffered(Buffered* b, PostedRecv pr) {
  co_await mpi_->proc(b->env.dst).cpu().busy(b->cost);
  copy_out(b->payload, b->env, pr);
  pr.req->complete(status_of(b->env));
  release(b);
}

// --- shared memory path ---------------------------------------------------

sim::Task<void> RdvChannel::send_shm(SendOp op) {
  const int node = mpi_->node_of(op.env.src);
  // One reference: the receiver's. The sender completes below.
  Buffered* b = new_buffered(op, 1);

  shm::ShmMsg m;
  m.src_rank = op.env.src;
  m.dst_rank = op.env.dst;
  m.bytes = op.env.bytes;
  m.remote_arrival = [this, b] { on_shm_arrival(b); };
  co_await shm_[static_cast<std::size_t>(node)]->send_copy(std::move(m));
  // Buffered: the sender is done after the copy-in.
  op.req->complete(status_of(op.env));
}

void RdvChannel::on_shm_arrival(Buffered* b) {
  auto& rp = mpi_->proc(b->env.dst);
  auto& dom = *shm_[static_cast<std::size_t>(mpi_->node_of(b->env.dst))];
  b->cost = dom.recv_cost(b->env.bytes) + match_scan_cost(rp);
  gate(rp, [this, b] { match_buffered(b); });
}

// --- fabric-error degradation ----------------------------------------------
//
// When a fabric's recovery protocol exhausts its retry budget the message's
// on_failed hook fires instead of the remaining completion callbacks. The
// device's job is to make sure no request hangs: the sender side completes
// with an error Status, and the receiver side learns about the failure
// through its matcher — the "error envelope" matches exactly like the data
// would have, so a posted (or future) receive completes with
// Status::error == kErrFabric instead of waiting forever.

void RdvChannel::fail_recv_side(const Envelope& env, int from_node) {
  // on_failed hooks fire on the engine owning the failed message's source
  // node; the receiver's matcher and CPU belong to its own partition, so
  // the teardown routes there (inline when they share a partition).
  // simcheck-allow: hot-alloc (error teardown only)
  fabric_->run_on_node(from_node, mpi_->node_of(env.dst), [this, env] {
    auto& rp = mpi_->proc(env.dst);
    const int node = mpi_->node_of(env.dst);
    // The error envelope lives in a receiver-side record until claimed.
    Buffered* b = buffered_.acquire(node, node, 1);
    b->env = env;
    b->req = nullptr;
    b->payload.clear();
    gate(rp, [this, b] {
      auto& rp2 = mpi_->proc(b->env.dst);
      rp2.cpu().accrue_overhead(cfg_.o_recv);
      if (auto pr = rp2.matcher().match_arrival(b->env)) {
        pr->req->complete(error_status(b->env));
        release(b);
      } else {
        rp2.matcher().add_unexpected(
            {b->env,
             [this, b](PostedRecv pr) { return claim_error(b, pr); }});
      }
    });
  });
}

sim::Task<void> RdvChannel::claim_error(Buffered* b, PostedRecv pr) {
  pr.req->complete(error_status(b->env));
  release(b);
  co_return;
}

void RdvChannel::fail_rendezvous(Rdv* r, int from_node) {
  const Envelope env = r->send.env;
  // Each side's request completes on its own partition, so each route
  // holds its own reference (the handshake's plus one more) and reads
  // only its own side's flags.
  r->refs.fetch_add(1, std::memory_order_relaxed);
  // simcheck-allow: hot-alloc (error teardown only)
  fabric_->run_on_node(from_node, mpi_->node_of(env.src), [r] {
    if (!r->send_done) {
      r->send_done = true;
      r->send.req->complete(error_status(r->send.env));
    }
    release(r);
  });
  // simcheck-allow: hot-alloc (error teardown only)
  fabric_->run_on_node(from_node, mpi_->node_of(env.dst), [this, r] {
    if (r->recv_matched) {
      // The receiver already matched (RTS made it); complete its request
      // directly rather than re-running the matcher.
      if (!r->recv_done) {
        r->recv_done = true;
        r->recv.req->complete(error_status(r->send.env));
      }
    } else {
      fail_recv_side(r->send.env, mpi_->node_of(r->send.env.dst));
    }
    release(r);
  });
}

// --- eager path -------------------------------------------------------------

sim::Task<void> RdvChannel::send_eager(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  const int snode = mpi_->node_of(op.env.src);
  const int dnode = mpi_->node_of(op.env.dst);
  // Copy into pre-registered staging: sender CPU pays the memcpy.
  co_await sp.cpu().busy(
      fabric_->node(snode).mem().copy_time(op.env.bytes));
  // Two references: the sender's completion and the receiver's delivery.
  Buffered* b = new_buffered(op, 2);

  model::NetMsg m;
  m.src = snode;
  m.dst = dnode;
  m.bytes = cfg_.ctrl_bytes + op.env.bytes;
  m.complete_on_delivery = false;
  m.local_complete = [this, b] { complete_eager(b); };
  m.remote_arrival = [this, b] { on_eager_arrival(b); };
  m.on_failed = [this, b] { fail_eager(b); };
  fabric_->post(std::move(m));
}

void RdvChannel::complete_eager(Buffered* b) {
  b->local_done = true;
  b->req->complete(status_of(b->env));
  release(b);
}

void RdvChannel::fail_eager(Buffered* b) {
  // Eager sends complete when the data leaves the NIC, so the send
  // request is normally already done here; only the receiver still
  // waits on the lost payload. Fires on the sender's partition.
  if (!b->local_done) {
    b->local_done = true;
    b->req->complete(error_status(b->env));
    release(b);
  }
  fail_recv_side(b->env, mpi_->node_of(b->env.src));
  release(b);  // the receiver's reference: the data never arrives
}

void RdvChannel::on_eager_arrival(Buffered* b) {
  auto& rp = mpi_->proc(b->env.dst);
  const int dnode = mpi_->node_of(b->env.dst);
  b->cost = cfg_.o_recv + fabric_->node(dnode).mem().copy_time(b->env.bytes) +
            match_scan_cost(rp);
  gate(rp, [this, b] { match_buffered(b); });
}

// --- rendezvous path --------------------------------------------------------

sim::Task<void> RdvChannel::send_rendezvous(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  const int snode = mpi_->node_of(op.env.src);
  const auto reg = regcache_(snode).try_acquire(op.buf.addr(), op.env.bytes);
  if (reg.cost > sim::Time::zero()) co_await sp.cpu().busy(reg.cost);
  if (!reg.ok) {
    if (!op.synchronous) {
      // Pin-down failed: degrade to the copy-in eager path, which only
      // needs the pre-registered staging buffers. Slower (extra copy),
      // but the send makes progress.
      co_await send_eager(std::move(op));
      co_return;
    }
    // MPI_Ssend must keep the rendezvous handshake — model a retry of
    // the (transient) registration failure.
    const sim::Time retry =
        regcache_(snode).acquire(op.buf.addr(), op.env.bytes);
    if (retry > sim::Time::zero()) co_await sp.cpu().busy(retry);
  }

  Rdv* r = rdv_.acquire(snode, mpi_->node_of(op.env.dst), 1);
  r->send = op;
  r->recv = PostedRecv{};
  r->recv_matched = false;
  r->recv_done = false;
  r->send_done = false;

  model::NetMsg rts;
  rts.src = snode;
  rts.dst = mpi_->node_of(op.env.dst);
  rts.bytes = cfg_.ctrl_bytes;
  rts.remote_arrival = [this, r] { on_rts(r); };
  rts.on_failed = [this, r] {
    fail_rendezvous(r, mpi_->node_of(r->send.env.src));
  };
  fabric_->post(std::move(rts));
}

void RdvChannel::on_rts(Rdv* r) {
  gate(mpi_->proc(r->send.env.dst), [this, r] { match_rts(r); });
}

void RdvChannel::match_rts(Rdv* r) {
  auto& rp = mpi_->proc(r->send.env.dst);
  rp.cpu().accrue_overhead(match_scan_cost(rp));
  if (auto pr = rp.matcher().match_arrival(r->send.env)) {
    r->recv = *pr;
    r->recv_matched = true;
    const sim::Time cost = cts_cost(r);
    rp.cpu().accrue_overhead(cost);
    mpi_->engine_of(r->send.env.dst)
        .spawn(send_cts_after(rp, cost, r), /*daemon=*/true);
  } else {
    rp.matcher().add_unexpected(
        {r->send.env, [this, r](PostedRecv pr) { return claim_rts(r, pr); }});
  }
}

sim::Time RdvChannel::cts_cost(Rdv* r) {
  const int dnode = mpi_->node_of(r->send.env.dst);
  sim::Time cost = cfg_.o_ctrl;
  const auto reg =
      regcache_(dnode).try_acquire(r->recv.buf.addr(), r->send.env.bytes);
  cost += reg.cost;
  // The receive buffer must be pinned before the CTS can advertise it;
  // retry a transient failure.
  if (!reg.ok) {
    cost += regcache_(dnode).acquire(r->recv.buf.addr(), r->send.env.bytes);
  }
  return cost;
}

sim::Task<void> RdvChannel::claim_rts(Rdv* r, PostedRecv pr) {
  r->recv = pr;
  r->recv_matched = true;
  co_await mpi_->proc(r->send.env.dst).cpu().busy(cts_cost(r));
  post_cts(r);
}

sim::Task<void> RdvChannel::send_cts_after(Proc& rp, sim::Time cost, Rdv* r) {
  co_await rp.host_work().occupy(cost);
  post_cts(r);
}

void RdvChannel::post_cts(Rdv* r) {
  const int dnode = mpi_->node_of(r->send.env.dst);
  model::NetMsg cts;
  cts.src = dnode;
  cts.dst = mpi_->node_of(r->send.env.src);
  cts.bytes = cfg_.ctrl_bytes;
  cts.remote_arrival = [this, r] { on_cts(r); };
  cts.on_failed = [this, r] {
    fail_rendezvous(r, mpi_->node_of(r->send.env.dst));
  };
  fabric_->post(std::move(cts));
}

void RdvChannel::on_cts(Rdv* r) {
  auto& sp = mpi_->proc(r->send.env.src);
  gate(sp, [this, r] {
    auto& sp2 = mpi_->proc(r->send.env.src);
    sp2.cpu().accrue_overhead(cfg_.o_ctrl);
    // CTS processing occupies the sender host before the data goes out;
    // with many rendezvous sends in flight these serialize — part of why
    // the paper's Fig. 2 bandwidth dips at the eager->rendezvous switch.
    mpi_->engine_of(r->send.env.src)
        .spawn(send_data_after(sp2, r), /*daemon=*/true);
  });
}

sim::Task<void> RdvChannel::send_data_after(Proc& sp, Rdv* r) {
  co_await sp.host_work().occupy(cfg_.o_ctrl);
  post_rendezvous_data(r);
}

void RdvChannel::post_rendezvous_data(Rdv* r) {
  const Envelope& env = r->send.env;
  // The data leg's remote half runs on the receiver, concurrently with
  // the sender's completion under partitioned execution: its own
  // reference.
  r->refs.fetch_add(1, std::memory_order_relaxed);

  model::NetMsg data;
  data.src = mpi_->node_of(env.src);
  data.dst = mpi_->node_of(env.dst);
  data.bytes = cfg_.ctrl_bytes + env.bytes;
  data.src_addr = r->send.buf.addr();
  data.dst_addr = r->recv.buf.addr();
  data.complete_on_delivery = true;  // RDMA/directed-send ack semantics
  data.local_complete = [this, r] { on_data_sent(r); };
  data.remote_arrival = [r] {
    // Zero-copy delivery: payload lands directly in the receive buffer
    // (the sender has not resumed yet, so its view is intact).
    copy_payload(r->send.buf, r->recv.buf,
                 std::min<std::uint64_t>(r->send.env.bytes,
                                         r->recv.buf.bytes()));
    release(r);
  };
  data.on_failed = [this, r] {
    release(r);  // the data never lands
    fail_rendezvous(r, mpi_->node_of(r->send.env.src));
  };
  fabric_->post(std::move(data));
}

void RdvChannel::on_data_sent(Rdv* r) {
  // The RDMA write has completed at the sender: the send request is
  // done, and a FIN control message tells the receiver the data is in
  // place (RDMA writes deliver no receiver-side completion by
  // themselves). The FIN trails the data on the same FIFO path.
  r->send_done = true;
  r->send.req->complete(status_of(r->send.env));
  model::NetMsg fin;
  fin.src = mpi_->node_of(r->send.env.src);
  fin.dst = mpi_->node_of(r->send.env.dst);
  fin.bytes = cfg_.ctrl_bytes;
  fin.remote_arrival = [this, r] { on_fin(r); };
  fin.on_failed = [this, r] {
    fail_rendezvous(r, mpi_->node_of(r->send.env.src));
  };
  fabric_->post(std::move(fin));
}

void RdvChannel::on_fin(Rdv* r) {
  auto& rp = mpi_->proc(r->send.env.dst);
  rp.cpu().accrue_overhead(cfg_.o_recv);
  mpi_->engine_of(r->send.env.dst)
      .spawn(complete_fin(rp, r), /*daemon=*/true);
}

sim::Task<void> RdvChannel::complete_fin(Proc& rp, Rdv* r) {
  co_await rp.host_work().occupy(cfg_.o_recv);
  r->recv_done = true;
  r->recv.req->complete(status_of(r->send.env));
  release(r);
}

}  // namespace mns::mpi
