// Collective algorithms, MPICH-1.2.x style: point-to-point compositions
// (dissemination barrier, binomial broadcast/reduce, allreduce = reduce +
// bcast or recursive doubling, alltoall(v) as a full non-blocking
// exchange), with a hardware fast path for barrier, bcast and allreduce's
// broadcast half on devices that broadcast in the switch (Quadrics).
//
// Internal point-to-point traffic deliberately bypasses the profiler: the
// paper's MPICH logging counts MPI-level calls, so a collective is one
// logged call regardless of how many wire messages implement it.
#include <stdexcept>
#include <vector>

#include "mpi/comm.hpp"

namespace mns::mpi {

namespace {
/// Synthetic scratch identity for library-internal temporaries. These are
/// the same (reused) library buffers every time, so they hit warm in the
/// registration caches — like the real implementations' pre-registered
/// collective staging areas.
std::uint64_t scratch_addr(Rank r, int which) {
  return 0xF000'0000'0000ULL + (static_cast<std::uint64_t>(r) << 24) +
         (static_cast<std::uint64_t>(which) << 8);
}

/// A temporary the size of `buf` for incoming partial results: rank r's
/// scratch identity `which` when `buf` is synthetic, else real bytes held
/// in `store`.
View scratch_like(const View& buf, Rank r, int which,
                  std::vector<std::byte>& store) {
  if (buf.synthetic()) return View::synth(scratch_addr(r, which), buf.bytes());
  store.resize(static_cast<std::size_t>(buf.bytes()));
  return View::out(store.data(), buf.bytes());
}
}  // namespace

sim::Task<void> Comm::barrier_impl() {
  mpi_->recorder().on_collective(rank_, 0, 0);
  const std::uint64_t seq = coll_seq_;
  const Tag tag = next_coll_tag();
  const int p = size();
  if (p == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  if (mpi_->device().has_hw_broadcast()) {
    // Binomial fan-in to rank 0, then one hardware broadcast releases
    // everyone (the Kini et al. structure: log-depth gather, O(1)
    // release).
    View tok = View::synth(scratch_addr(rank_, 6), 4);
    const int err = co_await reduce_p2p(tok, 1, Dtype::kByte, ROp::kMax, 0,
                                        tag);
    co_await hw_bcast_slot(seq, View::synth(scratch_addr(0, 0), 4), 0);
    co_await finish_collective(tag, err);
    co_return;
  }

  // Dissemination barrier.
  int err = kErrNone;
  for (int k = 1; k < p; k <<= 1) {
    const Rank dst = (rank_ + k) % p;
    const Rank src = (rank_ - k + p) % p;
    View sv = View::synth(scratch_addr(rank_, 1), 4);
    View rv = View::synth(scratch_addr(rank_, 2), 4);
    Request rreq = co_await irecv_impl(rv, src, tag);
    Request sreq = co_await isend_impl(sv, dst, tag);
    const Status sst = co_await wait(sreq);
    const Status rst = co_await wait(rreq);
    if (sst.error != kErrNone || rst.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::hw_bcast_slot(std::uint64_t seq, View buf, Rank root) {
  auto& slot = mpi_->collective_slot(seq);
  if (rank_ == root) {
    slot.stage_payload(buf);
    mpi_->device().hw_broadcast(root, buf.bytes(), buf.addr(),
                                [&slot] { slot.trig.fire(); });
  }
  co_await slot.trig.wait();
  if (rank_ != root) copy_payload(slot.payload, buf, buf.bytes());
  if (++slot.arrived == size()) mpi_->drop_collective_slot(seq);
}

sim::Task<int> Comm::bcast_p2p(View buf, Rank root, Tag tag) {
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  int err = kErrNone;
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const Rank src = (rel - mask + root) % p;
      Request r = co_await irecv_impl(buf, src, tag);
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const Rank dst = (rel + mask + root) % p;
      Request r = co_await isend_impl(buf, dst, tag);
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
    mask >>= 1;
  }
  co_return err;
}

sim::Task<void> Comm::bcast_impl(View buf, Rank root) {
  check_rank(root, "bad root rank");
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_collective(rank_, buf.bytes(), buf.addr());
  const std::uint64_t seq = coll_seq_;
  const Tag tag = next_coll_tag();
  if (size() == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  int err = kErrNone;
  if (mpi_->device().has_hw_broadcast()) {
    co_await hw_bcast_slot(seq, buf, root);
  } else {
    err = co_await bcast_p2p(buf, root, tag);
  }
  co_await finish_collective(tag, err);
}

sim::Task<int> Comm::reduce_p2p(View buf, std::size_t count, Dtype dtype,
                                ROp op, Rank root, Tag tag) {
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  int err = kErrNone;
  std::vector<std::byte> tmp_store;
  const View tmp = scratch_like(buf, rank_, 3, tmp_store);

  int mask = 1;
  while (mask < p) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p) {
        const Rank src = (src_rel + root) % p;
        Request r = co_await irecv_impl(tmp, src, tag);
        const Status st = co_await wait(r);
        if (st.error != kErrNone) err = kErrFabric;
        reduce_payload(tmp, buf, count, dtype, op);
      }
    } else {
      const Rank dst = ((rel & ~mask) + root) % p;
      Request r = co_await isend_impl(buf, dst, tag);
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
      break;
    }
    mask <<= 1;
  }
  co_return err;
}

sim::Task<void> Comm::reduce_impl(View buf, std::size_t count, Dtype dtype,
                             ROp op, Rank root) {
  check_rank(root, "bad root rank");
  check_count(buf, count, dtype);
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_collective(rank_, buf.bytes(), buf.addr());
  const Tag tag = next_coll_tag();
  if (size() == 1) {
    last_error_ = kErrNone;
    co_return;
  }
  const int err = co_await reduce_p2p(buf, count, dtype, op, root, tag);
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::allreduce_impl(View buf, std::size_t count, Dtype dtype,
                                ROp op) {
  check_count(buf, count, dtype);
  buf = mpi_->canon(rank_, buf);
  mpi_->recorder().on_collective(rank_, buf.bytes(), buf.addr());
  const std::uint64_t seq = coll_seq_;
  const Tag tag = next_coll_tag();
  if (size() == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  const int p = size();
  int err = kErrNone;
  if (mpi_->device().allreduce_recursive_doubling() && (p & (p - 1)) == 0) {
    // MPICH >= 1.2.5 (MPICH-GM): recursive doubling, log2(p) exchanges.
    std::vector<std::byte> tmp_store;
    const View tmp = scratch_like(buf, rank_, 4, tmp_store);
    for (int mask = 1; mask < p; mask <<= 1) {
      const Rank partner = rank_ ^ mask;
      const Status st =
          co_await sendrecv_internal(buf, partner, tag, tmp, partner, tag);
      if (st.error != kErrNone) err = kErrFabric;
      reduce_payload(tmp, buf, count, dtype, op);
    }
    co_await finish_collective(tag, err);
    co_return;
  }

  // Older MPICH bases (MVAPICH's 1.2.2, Quadrics' 1.2.4): allreduce =
  // reduce to 0, then broadcast. On Quadrics the broadcast half rides the
  // hardware (paper Fig. 12's QSN advantage).
  err = co_await reduce_p2p(buf, count, dtype, op, 0, tag);
  if (mpi_->device().has_hw_broadcast()) {
    co_await hw_bcast_slot(seq, buf, 0);
  } else {
    const int berr = co_await bcast_p2p(buf, 0, tag + 1);
    if (berr != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

template <class SendBlock, class RecvBlock>
sim::Task<int> Comm::exchange(Tag tag, SendBlock send_block,
                              RecvBlock recv_block) {
  const int p = size();
  const View self = send_block(rank_);
  copy_payload(self, recv_block(rank_), self.bytes());

  std::vector<Request> reqs;
  reqs.reserve(2 * static_cast<std::size_t>(p - 1));
  for (int i = 1; i < p; ++i) {
    const Rank src = (rank_ - i + p) % p;
    const View v = recv_block(src);
    if (v.bytes() == 0) continue;
    reqs.push_back(co_await irecv_impl(v, src, tag));
  }
  for (int i = 1; i < p; ++i) {
    const Rank dst = (rank_ + i) % p;
    const View v = send_block(dst);
    if (v.bytes() == 0) continue;
    reqs.push_back(co_await isend_impl(v, dst, tag));
  }
  int err = kErrNone;
  for (auto& r : reqs) {
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_return err;
}

sim::Task<void> Comm::alltoall_impl(View sendbuf, View recvbuf,
                               std::uint64_t per_rank) {
  sendbuf = mpi_->canon(rank_, sendbuf);
  recvbuf = mpi_->canon(rank_, recvbuf);
  mpi_->recorder().on_collective(rank_, sendbuf.bytes(), sendbuf.addr());
  const Tag tag = next_coll_tag();
  const int err = co_await exchange(
      tag, [&](Rank r) { return slice(sendbuf, r * per_rank, per_rank); },
      [&](Rank r) { return slice(recvbuf, r * per_rank, per_rank); });
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::alltoallv_impl(
    View sendbuf, const std::vector<std::uint64_t>& send_counts,
    View recvbuf, const std::vector<std::uint64_t>& recv_counts) {
  sendbuf = mpi_->canon(rank_, sendbuf);
  recvbuf = mpi_->canon(rank_, recvbuf);
  mpi_->recorder().on_collective(rank_, sendbuf.bytes(), sendbuf.addr());
  const Tag tag = next_coll_tag();
  const auto p = static_cast<std::size_t>(size());
  if (send_counts.size() != p || recv_counts.size() != p) {
    throw std::invalid_argument("alltoallv: counts must have one entry per rank");
  }
  std::vector<std::uint64_t> soff(p + 1, 0);
  std::vector<std::uint64_t> roff(p + 1, 0);
  for (std::size_t r = 0; r < p; ++r) {
    soff[r + 1] = soff[r] + send_counts[r];
    roff[r + 1] = roff[r] + recv_counts[r];
  }
  const int err = co_await exchange(
      tag, [&](Rank r) { return slice(sendbuf, soff[r], send_counts[r]); },
      [&](Rank r) { return slice(recvbuf, roff[r], recv_counts[r]); });
  co_await finish_collective(tag, err);
}

sim::Task<int> Comm::agree_error(Tag tag, int err) {
  const int p = size();
  if (p == 1) co_return err;
  // Two sweeps of binomial fan-in to rank 0 + binomial fan-out, rooted at
  // 0 like reduce_p2p/bcast_p2p with root 0 (rel == rank_). The error bit
  // rides in the token SIZE: 1 byte = clean, 2 bytes = error. A receiver
  // infers "error" from either an oversized token or a failed delivery
  // (the transport completes the receive with kErrFabric when the
  // sender's path is dead), so the verdict crosses dead subtrees too.
  // Faults are permanent and there is one error class, so after sweep one
  // rank 0 holds the OR of every reachable rank's bit and sweep two
  // spreads a verdict that can no longer change.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const Tag t = tag + sweep;
    // Fan-in (binomial reduce structure, root 0).
    int mask = 1;
    while (mask < p) {
      if ((rank_ & mask) == 0) {
        const int src = rank_ | mask;
        if (src < p) {
          View rv = View::synth(scratch_addr(rank_, 7), 2);
          Request r = co_await irecv_impl(rv, src, t);
          const Status st = co_await wait(r);
          if (st.error != kErrNone || st.bytes > 1) err = kErrFabric;
        }
      } else {
        const Rank dst = rank_ & ~mask;
        View sv =
            View::synth(scratch_addr(rank_, 8), err == kErrNone ? 1 : 2);
        Request r = co_await isend_impl(sv, dst, t);
        const Status st = co_await wait(r);
        if (st.error != kErrNone) err = kErrFabric;
        break;
      }
      mask <<= 1;
    }
    // Fan-out (binomial bcast structure, root 0).
    int rmask = 1;
    while (rmask < p) {
      if (rank_ & rmask) {
        const Rank src = rank_ - rmask;
        View rv = View::synth(scratch_addr(rank_, 9), 2);
        Request r = co_await irecv_impl(rv, src, t);
        const Status st = co_await wait(r);
        if (st.error != kErrNone || st.bytes > 1) err = kErrFabric;
        break;
      }
      rmask <<= 1;
    }
    rmask >>= 1;
    while (rmask > 0) {
      if (rank_ + rmask < p) {
        const Rank dst = rank_ + rmask;
        View sv =
            View::synth(scratch_addr(rank_, 10), err == kErrNone ? 1 : 2);
        Request r = co_await isend_impl(sv, dst, t);
        const Status st = co_await wait(r);
        if (st.error != kErrNone) err = kErrFabric;
      }
      rmask >>= 1;
    }
  }
  co_return err;
}

sim::Task<void> Comm::finish_collective(Tag tag, int err) {
  if (mpi_->fail_stop_armed()) {
    // Collectives reserve tag..tag+1 for their own phases (stride 4, see
    // next_coll_tag); the agreement sweeps use tag+2 and tag+3.
    err = co_await agree_error(tag + 2, err);
  }
  last_error_ = err;
}


// --- traced public wrappers -------------------------------------------------

sim::Task<void> Comm::barrier() {
  const double tt0 = wtime();
  co_await barrier_impl();
  trace(prof::EventKind::kCollective, "Barrier", kAnySource, 0, tt0);
}

sim::Task<void> Comm::bcast(View buf, Rank root) {
  const double tt0 = wtime();
  co_await bcast_impl(buf, root);
  trace(prof::EventKind::kCollective, "Bcast", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::allreduce(View buf, std::size_t count, Dtype dtype, ROp op) {
  const double tt0 = wtime();
  co_await allreduce_impl(buf, count, dtype, op);
  trace(prof::EventKind::kCollective, "Allreduce", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::reduce(View buf, std::size_t count, Dtype dtype, ROp op, Rank root) {
  const double tt0 = wtime();
  co_await reduce_impl(buf, count, dtype, op, root);
  trace(prof::EventKind::kCollective, "Reduce", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::alltoall(View sendbuf, View recvbuf, std::uint64_t per_rank) {
  const double tt0 = wtime();
  co_await alltoall_impl(sendbuf, recvbuf, per_rank);
  trace(prof::EventKind::kCollective, "Alltoall", kAnySource, sendbuf.bytes(), tt0);
}

sim::Task<void> Comm::alltoallv(View sendbuf, const std::vector<std::uint64_t>& send_counts, View recvbuf, const std::vector<std::uint64_t>& recv_counts) {
  const double tt0 = wtime();
  co_await alltoallv_impl(sendbuf, send_counts, recvbuf, recv_counts);
  trace(prof::EventKind::kCollective, "Alltoallv", kAnySource, sendbuf.bytes(), tt0);
}

}  // namespace mns::mpi
