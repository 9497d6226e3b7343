#include "mpi/comm.hpp"

#include <cstring>
#include <stdexcept>

namespace mns::mpi {

namespace {

template <class T>
void combine(T* inout, const T* in, std::size_t count, ROp op) {
  switch (op) {
    case ROp::kSum:
      for (std::size_t i = 0; i < count; ++i) inout[i] += in[i];
      break;
    case ROp::kMax:
      for (std::size_t i = 0; i < count; ++i)
        inout[i] = inout[i] > in[i] ? inout[i] : in[i];
      break;
    case ROp::kMin:
      for (std::size_t i = 0; i < count; ++i)
        inout[i] = inout[i] < in[i] ? inout[i] : in[i];
      break;
  }
}

}  // namespace

void reduce_payload(const View& in, const View& inout, std::size_t count,
                    Dtype dtype, ROp op) {
  if (in.synthetic() || inout.synthetic()) return;
  switch (dtype) {
    case Dtype::kByte:
      combine(reinterpret_cast<unsigned char*>(inout.data()),
              reinterpret_cast<const unsigned char*>(in.data()), count, op);
      break;
    case Dtype::kInt32:
      combine(reinterpret_cast<std::int32_t*>(inout.data()),
              reinterpret_cast<const std::int32_t*>(in.data()), count, op);
      break;
    case Dtype::kInt64:
      combine(reinterpret_cast<std::int64_t*>(inout.data()),
              reinterpret_cast<const std::int64_t*>(in.data()), count, op);
      break;
    case Dtype::kDouble:
      combine(reinterpret_cast<double*>(inout.data()),
              reinterpret_cast<const double*>(in.data()), count, op);
      break;
  }
}

void Comm::trace(prof::EventKind kind, const char* op, Rank peer,
                 std::uint64_t bytes, double t_start) const {
  prof::Tracer* tr = mpi_->tracer();
  if (!tr) return;
  prof::TraceEvent ev;
  ev.t_start = t_start;
  ev.t_end = wtime();
  ev.rank = rank_;
  ev.kind = kind;
  ev.peer = peer == kAnySource ? -1 : peer;
  ev.bytes = bytes;
  ev.op = op;
  tr->record(ev);
}

Comm::ComputeAwaiter Comm::compute(double seconds) {
  return ComputeAwaiter(*this, cpu().compute(sim::Time::seconds(seconds)));
}

View Comm::slice(const View& v, std::uint64_t offset, std::uint64_t len) {
  if (offset + len > v.bytes()) {
    throw std::out_of_range("View slice out of range");
  }
  if (v.synthetic()) return View::synth(v.addr() + offset, len);
  return v.writable() ? View::out(v.data() + offset, len)
                      : View::in(v.data() + offset, len);
}

void Comm::check_rank(Rank r, const char* what) const {
  if (r < 0 || r >= size()) throw std::invalid_argument(what);
}

void Comm::check_count(const View& buf, std::size_t count, Dtype dtype) {
  if (count > buf.bytes() / dtype_size(dtype)) {
    throw std::invalid_argument("reduction count overruns its buffer");
  }
}

void Comm::check_tag(Tag t, bool any_ok, const char* what) {
  if ((t < 0 || t >= kCollectiveTagBase) && !(any_ok && t == kAnyTag)) {
    throw std::invalid_argument(what);
  }
}

// --- point-to-point awaiters -------------------------------------------------

void Comm::P2PAwaiter::send_leg(SendOp& op, Request& req, sim::Cont then) {
  Proc& p = comm_->mpi_->proc(comm_->rank_);
  p.drain_deferred();
  // The handle exists before the device sees the request: a device may
  // complete it before it runs `then`.
  req = Request(p.requests().make(&comm_->mpi_->request_ledger()));
  op.req = req.state();
  op.started = then;
  comm_->mpi_->device().start_send(op);
}

void Comm::P2PAwaiter::recv_leg(sim::Cont then) {
  Proc& p = comm_->mpi_->proc(comm_->rank_);
  p.drain_deferred();
  const sim::Time post_cost = comm_->mpi_->device().recv_post_cost();
  if (post_cost > sim::Time::zero()) {
    p.cpu().busy_then(post_cost, then.event());
  } else {
    then();
  }
}

void Comm::P2PAwaiter::post_recv(PostedRecv& pr, Request& req,
                                 sim::Cont then) {
  Proc& p = comm_->mpi_->proc(comm_->rank_);
  req = Request(p.requests().make(&comm_->mpi_->request_ledger()));
  pr.req = req.state();
  if (auto u = p.matcher().match_posted(pr.want_src, pr.want_tag)) {
    u->claim(pr, then);
  } else {
    p.matcher().post(pr);
    then();
  }
}

void Comm::P2PAwaiter::wait_leg(Request& req) {
  comm_->mpi_->proc(comm_->rank_).drain_deferred();
  if (req.done()) {
    finish();
  } else {
    req.await_done().await_suspend(caller_);
  }
}

void Comm::SendrecvAwaiter::posted() {
  // isend_impl canonicalizes its view here, after the receive is posted.
  op_.buf = comm_->mpi_->canon(comm_->rank_, op_.buf);
  if (traced_) {
    const bool intra = comm_->mpi_->same_node(comm_->rank_, op_.env.dst);
    comm_->mpi_->recorder().on_send(comm_->rank_, op_.buf.bytes(), false,
                                    op_.buf.addr(), intra);
  }
  send_leg(op_, sreq_, sim::Cont::member<&SendrecvAwaiter::started>(this));
}

void Comm::SendrecvAwaiter::started() {
  comm_->mpi_->proc(comm_->rank_).drain_deferred();
  if (sreq_.done()) {
    sent();
  } else {
    sreq_.state()->trig.notify(
        sim::Cont::member<&SendrecvAwaiter::sent>(this));
  }
}

Status Comm::SendrecvAwaiter::await_resume() {
  scope_.leave();
  Status st = rreq_.status();
  if (!traced_) {
    // The exchange is one logical operation: a failed send leg errors
    // the returned status even when the receive leg completed.
    if (sreq_.status().error != kErrNone) st.error = sreq_.status().error;
    return st;
  }
  // One interval event for the exchange; the receive leg is recorded as a
  // zero-length marker so per-rank MPI time is not double counted.
  comm_->trace(prof::EventKind::kSend, "Sendrecv", op_.env.dst,
               op_.env.bytes, t_start_);
  comm_->trace(prof::EventKind::kRecv, "Sendrecv", st.source, st.bytes,
               comm_->wtime());
  return st;
}

Comm::IsendAwaiter Comm::isend_impl(View buf, Rank dst, Tag tag) {
  check_rank(dst, "bad dest rank");
  return IsendAwaiter(*this, mpi_->canon(rank_, buf), dst, tag);
}

Comm::IrecvAwaiter Comm::irecv_impl(View buf, Rank src, Tag tag) {
  return IrecvAwaiter(*this, mpi_->canon(rank_, buf), src, tag);
}

Comm::SendAwaiter Comm::send(View buf, Rank dst, Tag tag) {
  check_rank(dst, "bad dest rank");
  check_tag(tag, false, "bad send tag");
  buf = mpi_->canon(rank_, buf);
  const bool intra = mpi_->same_node(rank_, dst);
  mpi_->recorder().on_send(rank_, buf.bytes(), false, buf.addr(), intra);
  return SendAwaiter(*this, buf, dst, tag, wtime());
}

Comm::RecvAwaiter Comm::recv(View buf, Rank src, Tag tag) {
  if (src != kAnySource) check_rank(src, "bad source rank");
  check_tag(tag, true, "bad receive tag");
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_recv(rank_, buf.bytes(), false, buf.addr());
  return RecvAwaiter(*this, buf, src, tag, wtime());
}

Comm::IsendAwaiter Comm::isend(View buf, Rank dst, Tag tag) {
  check_rank(dst, "bad dest rank");
  check_tag(tag, false, "bad send tag");
  buf = mpi_->canon(rank_, buf);
  const bool intra = mpi_->same_node(rank_, dst);
  mpi_->recorder().on_send(rank_, buf.bytes(), true, buf.addr(), intra);
  return IsendAwaiter(*this, buf, dst, tag);
}

Comm::IrecvAwaiter Comm::irecv(View buf, Rank src, Tag tag) {
  if (src != kAnySource) check_rank(src, "bad source rank");
  check_tag(tag, true, "bad receive tag");
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_recv(rank_, buf.bytes(), true, buf.addr());
  return IrecvAwaiter(*this, buf, src, tag);
}

Comm::WaitAwaiter Comm::wait(Request req) {
  return WaitAwaiter(mpi_->proc(rank_), std::move(req));
}

sim::Task<void> Comm::wait_all(std::vector<Request> reqs) {
  for (auto& r : reqs) {
    co_await wait(r);
  }
}

Comm::SendrecvAwaiter Comm::sendrecv(View sendbuf, Rank dst, Tag stag,
                                     View recvbuf, Rank src, Tag rtag) {
  check_rank(dst, "bad dest rank");
  if (src != kAnySource) check_rank(src, "bad source rank");
  check_tag(stag, false, "bad send tag");
  check_tag(rtag, true, "bad receive tag");
  sendbuf = mpi_->canon(rank_, sendbuf);
  recvbuf = mpi_->canon(rank_, recvbuf);
  mpi_->recorder().on_recv(rank_, recvbuf.bytes(), false, recvbuf.addr());
  return SendrecvAwaiter(*this, sendbuf, dst, stag, recvbuf, src, rtag,
                         /*traced=*/true, wtime());
}

Comm::SendrecvAwaiter Comm::sendrecv_internal(View sendbuf, Rank dst,
                                              Tag stag, View recvbuf,
                                              Rank src, Tag rtag) {
  check_rank(dst, "bad dest rank");
  return SendrecvAwaiter(*this, sendbuf, dst, stag,
                         mpi_->canon(rank_, recvbuf), src, rtag,
                         /*traced=*/false, 0.0);
}

sim::Task<Status> Comm::probe(Rank src, Tag tag) {
  // Real MPI_Probe spins in the progress engine; we poll at a fixed
  // cadence. A message that never arrives hangs here, exactly like the
  // real call (the engine reports it as a deadlock only if no other
  // event remains, since polling keeps the queue alive).
  if (src != kAnySource) check_rank(src, "bad source rank");
  check_tag(tag, true, "bad receive tag");
  auto& p = mpi_->proc(rank_);
  // The host stays inside MPI across the poll pauses too, so protocol
  // work arriving mid-poll (an RTS) is handled, not deferred.
  sim::MpiScope scope(p.cpu());
  for (;;) {
    p.drain_deferred();
    if (const Unexpected* u = p.matcher().peek_unexpected(src, tag)) {
      co_return Status{u->env.src, u->env.tag, u->env.bytes};
    }
    co_await p.cpu().busy(sim::Time::ns(200));  // poll cadence
  }
}

Tag Comm::next_coll_tag() {
  // Stride 4: algorithms may use tag..tag+3 for internal phases without
  // colliding with the next collective.
  return kCollectiveTagBase + static_cast<Tag>((coll_seq_++ * 4) % (1 << 22));
}

}  // namespace mns::mpi
