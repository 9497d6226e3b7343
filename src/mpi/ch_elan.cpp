#include "mpi/ch_elan.hpp"

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

ElanChannelConfig default_elan_channel_config() {
  return ElanChannelConfig{
      // Posting Tport descriptors is host-expensive: Quadrics' measured
      // overhead is ~3.3 us combined (Fig. 3) despite its lowest latency.
      .o_send = sim::Time::usec(1.7),
      .o_recv = sim::Time::usec(0.8),
      .o_unexpected = sim::Time::usec(0.8),
      .o_complete = sim::Time::usec(0.8),
      .nic_match_per_entry = sim::Time::usec(1.9),
      .hw_bcast_overhead = sim::Time::usec(8.0),
      .ctrl_bytes = 32,
      .buffered_max = 4096,
  };
}

ElanChannel::ElanChannel(Mpi& mpi, elan::ElanFabric& fabric,
                         ElanChannelConfig cfg)
    : mpi_(&mpi), fabric_(&fabric), cfg_(cfg), msgs_(fabric) {}

std::uint64_t ElanChannel::memory_bytes(int node) const {
  return fabric_->memory_bytes(node);
}

sim::Task<void> ElanChannel::start_send(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  co_await sp.cpu().busy(cfg_.o_send);

  const Envelope env = op.env;
  const bool buffered = !op.synchronous && env.bytes <= cfg_.buffered_max;
  const int snode = mpi_->node_of(env.src);
  const int dnode = mpi_->node_of(env.dst);

  // MPI_Ssend semantics: completion is tied to the receiver's match, not
  // to delivery into the Elan system buffer, so only the receiver side
  // holds a reference.
  Msg* m = msgs_.acquire(snode, dnode, op.synchronous ? 1 : 2);
  m->env = env;
  m->req = op.req;
  m->src_view = op.buf;
  m->sync = op.synchronous;
  m->send_done = false;
  // Buffered (small) sends may complete before delivery, so the payload
  // must be captured up front; large sends are zero-copy and the payload
  // is read inside remote_arrival (before the sender resumes).
  m->payload.clear();
  if (buffered && !op.buf.synthetic() && env.bytes > 0) {
    // simcheck-allow: hot-alloc (real payloads only; the record keeps its capacity)
    m->payload.assign(op.buf.data(), op.buf.data() + env.bytes);
  }

  model::NetMsg nm;
  nm.src = snode;
  nm.dst = dnode;
  nm.bytes = cfg_.ctrl_bytes + env.bytes;
  nm.src_addr = op.buf.addr();
  nm.dst_addr = 0;  // final placement decided by NIC matching on arrival
  nm.complete_on_delivery = !buffered;
  if (!op.synchronous) {
    nm.local_complete = [this, m] { complete_send(m); };
  }
  nm.remote_arrival = [this, m] { on_arrival(m); };
  nm.on_failed = [this, m] { fail_send(m); };
  fabric_->post(std::move(nm));
}

void ElanChannel::complete_send(Msg* m) {
  m->send_done = true;
  m->req->complete(status_of(m->env));
  release(m);
}

void ElanChannel::fail_send(Msg* m) {
  // Elan hardware retry exhausted. Buffered sends already completed at
  // NIC-clear; zero-copy and synchronous ones complete with the error
  // here. The receiver learns of the failure through NIC matching (the
  // error envelope), exactly where the data would have matched.
  if (!m->send_done) {
    m->send_done = true;
    m->req->complete(error_status(m->env));
    if (!m->sync) release(m);
  }
  // Fires on the sender's partition; the receiver's matcher lives on
  // its own — route the error-envelope match there, handing it the
  // receiver side's reference (the data never arrives).
  const int snode = mpi_->node_of(m->env.src);
  const int dnode = mpi_->node_of(m->env.dst);
  // simcheck-allow: hot-alloc (error teardown only)
  fabric_->run_on_node(snode, dnode, [this, m] {
    on_failed_arrival(m->env);
    release(m);
  });
}

void ElanChannel::on_arrival(Msg* m) {
  // NIC-side matching: runs NOW, regardless of what the host is doing.
  const Envelope env = m->env;
  auto& rp = mpi_->proc(env.dst);
  const int dnode = mpi_->node_of(env.dst);

  // The Elan walks its posted-receive list in NIC memory: each extra
  // entry costs NIC time (heavy when many receives are outstanding, e.g.
  // during an alltoall).
  const std::size_t posted = rp.matcher().posted_count();
  const sim::Time scan =
      posted > 1
          ? cfg_.nic_match_per_entry * static_cast<std::int64_t>(posted - 1)
          : sim::Time::zero();

  if (auto pr = rp.matcher().match_arrival(env)) {
    // Matched a posted receive: the NIC DMAs straight into the user
    // buffer; the destination pages may stall the NIC MMU.
    const sim::Time stall =
        scan + fabric_->mmu(dnode).access(pr->buf.addr(), env.bytes);
    // Payload: buffered small sends carry a captured copy; zero-copy large
    // sends read the source view, still intact at this instant.
    if (!pr->buf.synthetic()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(env.bytes, pr->buf.bytes()));
      if (!m->payload.empty()) {
        std::memcpy(pr->buf.data(), m->payload.data(), n);
      } else {
        copy_payload(m->src_view, pr->buf, n);
      }
    }
    if (m->sync) {  // matched: ssend done
      m->send_done = true;
      m->req->complete(status_of(env));
    }
    release(m);
    rp.cpu().accrue_overhead(cfg_.o_complete);
    // The scan + MMU work occupies the NIC processor, serializing with
    // other arrivals (this is what makes a many-receiver burst like
    // alltoall expensive on Quadrics, Fig. 11).
    mpi_->engine_of(env.dst).spawn(deliver(dnode, stall, *pr, env),
                                   /*daemon=*/true);
    return;
  }

  // Unexpected: lands in the Elan system buffer. Capture the payload now
  // (zero-copy source is still valid at this instant).
  if (m->payload.empty() && !m->src_view.synthetic() && env.bytes > 0) {
    // simcheck-allow: hot-alloc (real payloads only; the record keeps its capacity)
    m->payload.assign(m->src_view.data(), m->src_view.data() + env.bytes);
  }
  rp.matcher().add_unexpected(
      {env, [this, m](PostedRecv pr) { return claim(m, pr); }});
}

sim::Task<void> ElanChannel::deliver(int dnode, sim::Time stall,
                                     PostedRecv pr, Envelope env) {
  co_await fabric_->occupy_nic(dnode, stall);
  co_await mpi_->engine_of(env.dst).delay(cfg_.o_complete);
  pr.req->complete(status_of(env));
}

sim::Task<void> ElanChannel::claim(Msg* m, PostedRecv pr) {
  if (m->sync) {
    m->send_done = true;
    m->req->complete(status_of(m->env));
  }
  // Receiver claims from the system buffer: copy-out on the host.
  auto& rp = mpi_->proc(m->env.dst);
  const int dn = mpi_->node_of(m->env.dst);
  const sim::Time cost =
      cfg_.o_unexpected + fabric_->node(dn).mem().copy_time(m->env.bytes);
  co_await rp.cpu().busy(cost);
  if (!pr.buf.synthetic() && !m->payload.empty()) {
    std::memcpy(pr.buf.data(), m->payload.data(),
                static_cast<std::size_t>(
                    std::min<std::uint64_t>(m->env.bytes, pr.buf.bytes())));
  }
  pr.req->complete(status_of(m->env));
  release(m);
}

void ElanChannel::on_failed_arrival(const Envelope& env) {
  // NIC context (like on_arrival): the error envelope goes through the
  // same Tport matching the data would have, so the receive completes
  // with Status::error instead of hanging.
  auto& rp = mpi_->proc(env.dst);
  if (auto pr = rp.matcher().match_arrival(env)) {
    pr->req->complete(error_status(env));
    return;
  }
  // The envelope waits in a receiver-side record until claimed.
  const int node = mpi_->node_of(env.dst);
  Msg* m = msgs_.acquire(node, node, 1);
  m->env = env;
  m->req = nullptr;
  m->sync = false;
  m->payload.clear();
  rp.matcher().add_unexpected(
      {env, [this, m](PostedRecv pr) { return claim_error(m, pr); }});
}

sim::Task<void> ElanChannel::claim_error(Msg* m, PostedRecv pr) {
  pr.req->complete(error_status(m->env));
  release(m);
  co_return;
}

void ElanChannel::hw_broadcast(Rank root, std::uint64_t bytes,
                               std::uint64_t addr,
                               std::function<void()> done) {
  // The hardware does the fan-out; the software envelope (posting the
  // broadcast descriptor, completion notification to every rank) still
  // costs a fixed overhead at MPI level.
  auto* eng = &mpi_->engine();
  const sim::Time extra = cfg_.hw_bcast_overhead;
  fabric_->post_hw_broadcast(
      mpi_->node_of(root), bytes, addr,
      [eng, extra, done = std::move(done)] { eng->after(extra, done); });
}

}  // namespace mns::mpi
