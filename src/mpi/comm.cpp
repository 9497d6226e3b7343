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

sim::Task<Request> Comm::isend_impl(View buf, Rank dst, Tag tag) {
  check_rank(dst, "bad dest rank");
  buf = mpi_->canon(rank_, buf);
  auto& p = mpi_->proc(rank_);
  sim::MpiScope scope(p.cpu());
  p.drain_deferred();

  // The handle exists before the device sees the request: a device may
  // complete it before start_send returns.
  Request req(p.requests().make(&mpi_->request_ledger()));
  SendOp op;
  op.env = Envelope{rank_, dst, tag, buf.bytes()};
  op.buf = buf;
  op.req = req.state();
  co_await mpi_->device().start_send(std::move(op));
  co_return req;
}

sim::Task<Request> Comm::irecv_impl(View buf, Rank src, Tag tag) {
  buf = mpi_->canon(rank_, buf);
  auto& p = mpi_->proc(rank_);
  sim::MpiScope scope(p.cpu());
  p.drain_deferred();

  const sim::Time post_cost = mpi_->device().recv_post_cost();
  if (post_cost > sim::Time::zero()) co_await p.cpu().busy(post_cost);

  Request req(p.requests().make(&mpi_->request_ledger()));
  PostedRecv pr{src, tag, buf, req.state()};
  if (auto u = p.matcher().match_posted(src, tag)) {
    co_await u->claim(std::move(pr));
  } else {
    p.matcher().post(std::move(pr));
  }
  co_return req;
}

sim::Task<void> Comm::send(View buf, Rank dst, Tag tag) {
  check_rank(dst, "bad dest rank");
  buf = mpi_->canon(rank_, buf);
  const bool intra = mpi_->same_node(rank_, dst);
  mpi_->recorder().on_send(rank_, buf.bytes(), false, buf.addr(), intra);
  const double tt0 = wtime();
  Request req = co_await isend_impl(buf, dst, tag);
  co_await wait(std::move(req));
  trace(prof::EventKind::kSend, "Send", dst, buf.bytes(), tt0);
}

sim::Task<Status> Comm::recv(View buf, Rank src, Tag tag) {
  if (src != kAnySource) check_rank(src, "bad source rank");
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_recv(rank_, buf.bytes(), false, buf.addr());
  const double tt0 = wtime();
  Request req = co_await irecv_impl(buf, src, tag);
  const Status st = co_await wait(std::move(req));
  trace(prof::EventKind::kRecv, "Recv", st.source, st.bytes, tt0);
  co_return st;
}

sim::Task<Request> Comm::isend(View buf, Rank dst, Tag tag) {
  check_rank(dst, "bad dest rank");
  buf = mpi_->canon(rank_, buf);
  const bool intra = mpi_->same_node(rank_, dst);
  mpi_->recorder().on_send(rank_, buf.bytes(), true, buf.addr(), intra);
  return isend_impl(buf, dst, tag);
}

sim::Task<Request> Comm::irecv(View buf, Rank src, Tag tag) {
  if (src != kAnySource) check_rank(src, "bad source rank");
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_recv(rank_, buf.bytes(), true, buf.addr());
  return irecv_impl(buf, src, tag);
}

Comm::WaitAwaiter Comm::wait(Request req) {
  return WaitAwaiter(mpi_->proc(rank_), std::move(req));
}

sim::Task<void> Comm::wait_all(std::vector<Request> reqs) {
  for (auto& r : reqs) {
    co_await wait(r);
  }
}

sim::Task<Status> Comm::sendrecv(View sendbuf, Rank dst, Tag stag,
                                 View recvbuf, Rank src, Tag rtag) {
  check_rank(dst, "bad dest rank");
  if (src != kAnySource) check_rank(src, "bad source rank");
  sendbuf = mpi_->canon(rank_, sendbuf);
  recvbuf = mpi_->canon(rank_, recvbuf);
  mpi_->recorder().on_recv(rank_, recvbuf.bytes(), false, recvbuf.addr());
  const double tt0 = wtime();
  Request rreq = co_await irecv_impl(recvbuf, src, rtag);
  const bool intra = mpi_->same_node(rank_, dst);
  mpi_->recorder().on_send(rank_, sendbuf.bytes(), false, sendbuf.addr(),
                           intra);
  Request sreq = co_await isend_impl(sendbuf, dst, stag);
  co_await wait(sreq);
  const Status st = co_await wait(rreq);
  // One interval event for the exchange; the receive leg is recorded as a
  // zero-length marker so per-rank MPI time is not double counted.
  trace(prof::EventKind::kSend, "Sendrecv", dst, sendbuf.bytes(), tt0);
  trace(prof::EventKind::kRecv, "Sendrecv", st.source, st.bytes, wtime());
  co_return st;
}

sim::Task<Status> Comm::probe(Rank src, Tag tag) {
  // Real MPI_Probe spins in the progress engine; we poll at a fixed
  // cadence. A message that never arrives hangs here, exactly like the
  // real call (the engine reports it as a deadlock only if no other
  // event remains, since polling keeps the queue alive).
  if (src != kAnySource) check_rank(src, "bad source rank");
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
