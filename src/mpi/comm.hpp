// The public MPI-like API. One Comm object per rank, all sharing the Mpi
// job. Calls are awaited inside the rank's simulated process. The
// point-to-point calls, wait and compute are plain awaiters without a
// coroutine frame; wait_all, probe and the collectives are coroutines.
//
// Naming follows MPI-1 (send/recv/isend/irecv/wait/collectives); buffers
// are Views (real or synthetic; see mpi/types.hpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "prof/trace.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/task.hpp"

namespace mns::mpi {

/// Element-wise reduction of `in` into `inout` (both real Views of `count`
/// elements of `dtype`). No-op when either view is synthetic.
void reduce_payload(const View& in, const View& inout, std::size_t count,
                    Dtype dtype, ROp op);

class Comm {
 public:
  Comm(Mpi& mpi, Rank rank) : mpi_(&mpi), rank_(rank) {}

  Rank rank() const { return rank_; }
  int size() const { return static_cast<int>(mpi_->size()); }
  Mpi& job() const { return *mpi_; }
  sim::Cpu& cpu() const { return mpi_->proc(rank_).cpu(); }

  /// Simulated wall-clock in seconds (MPI_Wtime).
  double wtime() const { return mpi_->engine_of(rank_).now().to_seconds(); }
  /// Exact simulated time on this rank's engine. Unlike Cluster::now()
  /// (the max over partition engines, which can trail the last
  /// application event by PDES teardown bookkeeping) this is an
  /// application-level timestamp: bit-identical across partition counts.
  sim::Time now() const { return mpi_->engine_of(rank_).now(); }

  /// What compute() returns: the rank's Cpu pause, and the trace event
  /// its caller records on resuming. A plain awaiter with no coroutine
  /// frame of its own, timed from the call: co_await it at once.
  class [[nodiscard]] ComputeAwaiter {
   public:
    ComputeAwaiter(const Comm& comm, sim::Delay pause)
        : comm_(&comm), t_start_(comm.wtime()), pause_(pause) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { pause_.await_suspend(h); }
    void await_resume() const {
      comm_->trace(prof::EventKind::kCompute, "compute", kAnySource, 0,
                   t_start_);
    }

   private:
    const Comm* comm_;
    double t_start_;
    sim::Delay pause_;
  };

  /// What wait() returns. The call enters MPI and runs the rank's
  /// deferred protocol work; awaiting it waits for the request without a
  /// coroutine frame of its own. The rank leaves MPI as its caller
  /// resumes, or when a frame destroyed mid-wait drops the awaiter.
  /// co_await it at once.
  class [[nodiscard]] WaitAwaiter {
   public:
    WaitAwaiter(Proc& p, Request req) : scope_(p.cpu()), req_(std::move(req)) {
      p.drain_deferred();
    }
    bool await_ready() const noexcept { return req_.done(); }
    void await_suspend(std::coroutine_handle<> h) {
      req_.await_done().await_suspend(h);
    }
    Status await_resume() {
      scope_.leave();
      return req_.status();
    }

   private:
    sim::MpiScope scope_;
    Request req_;
  };

  /// Application computation for `seconds` (outside MPI: devices without
  /// NIC-side protocol engines cannot make rendezvous progress meanwhile).
  ComputeAwaiter compute(double seconds);

  // --- point-to-point ----------------------------------------------------
  //
  // send, recv, isend, irecv and sendrecv check their arguments, record
  // the call and start its trace interval at the call, and return a plain
  // awaiter (defined below the class) that holds the rest of the call's
  // state — its MPI scope, the SendOp or PostedRecv, the Request — in the
  // caller's frame. co_await it at once. User tags lie in
  // [0, kCollectiveTagBase); a receive may also name kAnyTag. A bad rank
  // or tag throws std::invalid_argument at the call.

  class P2PAwaiter;
  class SendAwaiter;
  class RecvAwaiter;
  class IsendAwaiter;
  class IrecvAwaiter;
  class SendrecvAwaiter;

  SendAwaiter send(View buf, Rank dst, Tag tag);
  RecvAwaiter recv(View buf, Rank src = kAnySource, Tag tag = kAnyTag);
  IsendAwaiter isend(View buf, Rank dst, Tag tag);
  IrecvAwaiter irecv(View buf, Rank src = kAnySource, Tag tag = kAnyTag);
  WaitAwaiter wait(Request req);
  sim::Task<void> wait_all(std::vector<Request> reqs);
  /// Blocking probe: wait until a matching message has arrived
  /// (MPI_Probe). The message stays queued for a later recv.
  sim::Task<Status> probe(Rank src, Tag tag);
  /// Combined exchange (MPI_Sendrecv): both directions in flight at once.
  SendrecvAwaiter sendrecv(View sendbuf, Rank dst, Tag stag, View recvbuf,
                           Rank src, Tag rtag);

  // --- collectives (COMM_WORLD) -------------------------------------------
  //
  // All ranks must call each collective in the same order. Algorithms are
  // MPICH-style point-to-point compositions; barrier/bcast use the Elan
  // hardware broadcast when the device provides one.

  sim::Task<void> barrier();
  sim::Task<void> bcast(View buf, Rank root);
  /// In-place allreduce over `count` elements held in `buf`. Both
  /// reductions throw std::invalid_argument if the elements overrun `buf`.
  sim::Task<void> allreduce(View buf, std::size_t count, Dtype dtype,
                            ROp op);
  sim::Task<void> reduce(View buf, std::size_t count, Dtype dtype, ROp op,
                         Rank root);
  /// Each rank contributes `per_rank` bytes to every rank. `sendbuf` and
  /// `recvbuf` are the full size*per_rank regions.
  sim::Task<void> alltoall(View sendbuf, View recvbuf,
                           std::uint64_t per_rank);
  /// Variable alltoall: rank r receives send_counts[r] bytes of this
  /// rank's sendbuf (packed contiguously in rank order); recv_counts are
  /// this rank's incoming sizes in source-rank order.
  sim::Task<void> alltoallv(View sendbuf,
                            const std::vector<std::uint64_t>& send_counts,
                            View recvbuf,
                            const std::vector<std::uint64_t>& recv_counts);

  /// Outcome of this rank's most recent collective. kErrNone, or
  /// kErrFabric when a transport error surfaced anywhere in the
  /// collective. Under an armed fail-stop fault plan every collective
  /// runs an error-agreement epilogue, so all live ranks observe the
  /// SAME value here after the same collective — no rank returns "ok"
  /// while a peer saw its subtree die.
  int last_error() const { return last_error_; }

 private:
  /// Record a trace event if the job has a tracer installed.
  void trace(prof::EventKind kind, const char* op, Rank peer,
             std::uint64_t bytes, double t_start) const;

  sim::Task<void> barrier_impl();
  sim::Task<void> bcast_impl(View buf, Rank root);
  sim::Task<void> allreduce_impl(View buf, std::size_t count, Dtype dtype, ROp op);
  sim::Task<void> reduce_impl(View buf, std::size_t count, Dtype dtype, ROp op, Rank root);
  sim::Task<void> alltoall_impl(View sendbuf, View recvbuf, std::uint64_t per_rank);
  sim::Task<void> alltoallv_impl(View sendbuf, const std::vector<std::uint64_t>& send_counts, View recvbuf, const std::vector<std::uint64_t>& recv_counts);

  /// isend and irecv without the user-tag check, the profiler record or
  /// the trace: the collectives' own point-to-point legs.
  IsendAwaiter isend_impl(View buf, Rank dst, Tag tag);
  IrecvAwaiter irecv_impl(View buf, Rank src, Tag tag);
  /// Throws std::invalid_argument (message `what`) unless `r` is a rank
  /// of this job.
  void check_rank(Rank r, const char* what) const;
  /// Throws std::invalid_argument (message `what`) unless `t` is a user
  /// tag, or kAnyTag where `any_ok` (a receive).
  static void check_tag(Tag t, bool any_ok, const char* what);
  /// Throws std::invalid_argument unless `count` elements of `dtype` fit
  /// in `buf` (real or synthetic).
  static void check_count(const View& buf, std::size_t count, Dtype dtype);
  /// Subview helper for collective algorithms on real/synthetic buffers.
  static View slice(const View& v, std::uint64_t offset, std::uint64_t len);
  /// Next collective tag/slot id (same sequence on every rank).
  Tag next_coll_tag();

  /// sendrecv without the profiler record or the trace; a failed send
  /// leg errors the returned status too.
  SendrecvAwaiter sendrecv_internal(View sendbuf, Rank dst, Tag stag,
                                    View recvbuf, Rank src, Tag rtag);
  /// Internal collective building blocks. Both return the error envelope
  /// accumulated over their point-to-point legs (kErrNone or kErrFabric)
  /// instead of hiding it: a dead link errors the affected wait rather
  /// than hanging it, and the collective threads the verdict through to
  /// the agreement epilogue.
  sim::Task<int> bcast_p2p(View buf, Rank root, Tag tag);
  sim::Task<int> reduce_p2p(View buf, std::size_t count, Dtype dtype, ROp op,
                            Rank root, Tag tag);
  /// Hardware broadcast of `buf` from `root` through collective #seq's
  /// slot: the root stages the payload and fires the device broadcast,
  /// every rank waits for it, the others copy the payload out, and the
  /// last rank to leave drops the slot.
  sim::Task<void> hw_bcast_slot(std::uint64_t seq, View buf, Rank root);
  /// MPICH's small/medium alltoall exchange: copy the self-block, post
  /// every receive, then every send, then wait for all. `send_block(r)`
  /// and `recv_block(r)` are the views exchanged with rank r; an empty
  /// block travels as no message at all. Returns the error envelope like
  /// the building blocks above.
  template <class SendBlock, class RecvBlock>
  sim::Task<int> exchange(Tag tag, SendBlock send_block,
                          RecvBlock recv_block);
  /// Two-sweep deterministic error agreement (fail-stop plans only).
  /// Each sweep is a binomial fan-in to rank 0 followed by a binomial
  /// fan-out; the error bit travels in the token SIZE (1 byte = clean,
  /// 2 bytes = error), so a rank that cannot hear the verdict because
  /// its own path died observes the error anyway — the failed delivery
  /// completes its receive with kErrFabric. With permanent (fail-stop)
  /// faults and a single error class, two sweeps make every live rank
  /// leave with the same value even when the fault first manifests
  /// during sweep one.
  sim::Task<int> agree_error(Tag tag, int err);
  /// Collective epilogue: runs agree_error under an armed fail-stop
  /// plan (transient-only runs skip it and stay bit-identical), then
  /// publishes the outcome to last_error().
  sim::Task<void> finish_collective(Tag tag, int err);

  Mpi* mpi_;
  Rank rank_;
  std::uint64_t coll_seq_ = 0;
  int last_error_ = kErrNone;
};

/// The frame-free machinery the point-to-point awaiters share. A call is
/// a short chain of legs, each the body of a coroutine it replaces: the
/// send leg (isend_impl's: make the request, hand the SendOp to the
/// device), the receive leg (irecv_impl's: pay the device's post cost,
/// claim an unexpected message or post the receive) and the wait leg
/// (Comm::wait's: drain the deferred queue, then resume the caller once
/// the request is done). A leg the device ends from an event continues
/// from that event, where the coroutine resumed; one that ends at once
/// continues at once, and await_suspend then lets the caller go on
/// without suspending, as awaiting a Task that never suspended did. The
/// call enters MPI when awaited and leaves as its caller resumes, and
/// nothing touches the awaiter once it has resumed its caller.
class Comm::P2PAwaiter {
 public:
  bool await_ready() const noexcept { return false; }
  P2PAwaiter(const P2PAwaiter&) = delete;
  P2PAwaiter& operator=(const P2PAwaiter&) = delete;

 protected:
  explicit P2PAwaiter(Comm& comm) : comm_(&comm) {}
  ~P2PAwaiter() = default;

  /// Set the caller aside and enter MPI; the legs the awaiter starts
  /// next run as part of await_suspend until suspended() closes it.
  void enter(std::coroutine_handle<> h) {
    caller_ = h;
    scope_.enter(comm_->cpu());
    launching_ = true;
  }
  /// Whether the caller stays suspended once await_suspend returns.
  bool suspended() {
    launching_ = false;
    return !finished_;
  }
  /// The call is done: resume the caller, or let await_suspend not
  /// suspend it.
  void finish() {
    if (launching_) {
      finished_ = true;
    } else {
      caller_.resume();
    }
  }

  /// Each leg runs `then` when it ends; recv_leg's `then` is the
  /// awaiter's call of post_recv, run at once or from the event that
  /// ends the device's post cost.
  void send_leg(SendOp& op, Request& req, sim::Cont then);
  void recv_leg(sim::Cont then);
  void post_recv(PostedRecv& pr, Request& req, sim::Cont then);
  void wait_leg(Request& req);

  Comm* comm_;
  sim::MpiScope scope_;

 private:
  std::coroutine_handle<> caller_;
  bool launching_ = false;
  bool finished_ = false;
};

class [[nodiscard]] Comm::IsendAwaiter : public Comm::P2PAwaiter {
 public:
  IsendAwaiter(Comm& comm, View buf, Rank dst, Tag tag)
      : P2PAwaiter(comm),
        op_{Envelope{comm.rank_, dst, tag, buf.bytes()}, buf, nullptr, {}} {}
  bool await_suspend(std::coroutine_handle<> h) {
    enter(h);
    send_leg(op_, req_, sim::Cont::member<&IsendAwaiter::finish>(this));
    return suspended();
  }
  Request await_resume() {
    scope_.leave();
    return std::move(req_);
  }

 private:
  SendOp op_;
  Request req_;
};

class [[nodiscard]] Comm::IrecvAwaiter : public Comm::P2PAwaiter {
 public:
  IrecvAwaiter(Comm& comm, View buf, Rank src, Tag tag)
      : P2PAwaiter(comm), pr_{src, tag, buf, nullptr} {}
  bool await_suspend(std::coroutine_handle<> h) {
    enter(h);
    recv_leg(sim::Cont::member<&IrecvAwaiter::post_now>(this));
    return suspended();
  }
  Request await_resume() {
    scope_.leave();
    return std::move(req_);
  }

 private:
  void post_now() {
    post_recv(pr_, req_, sim::Cont::member<&IrecvAwaiter::finish>(this));
  }

  PostedRecv pr_;
  Request req_;
};

class [[nodiscard]] Comm::SendAwaiter : public Comm::P2PAwaiter {
 public:
  SendAwaiter(Comm& comm, View buf, Rank dst, Tag tag, double t_start)
      : P2PAwaiter(comm),
        op_{Envelope{comm.rank_, dst, tag, buf.bytes()}, buf, nullptr, {}},
        t_start_(t_start) {}
  bool await_suspend(std::coroutine_handle<> h) {
    enter(h);
    send_leg(op_, req_, sim::Cont::member<&SendAwaiter::started>(this));
    return suspended();
  }
  void await_resume() {
    scope_.leave();
    comm_->trace(prof::EventKind::kSend, "Send", op_.env.dst, op_.env.bytes,
                 t_start_);
  }

 private:
  void started() { wait_leg(req_); }

  SendOp op_;
  Request req_;
  double t_start_;
};

class [[nodiscard]] Comm::RecvAwaiter : public Comm::P2PAwaiter {
 public:
  RecvAwaiter(Comm& comm, View buf, Rank src, Tag tag, double t_start)
      : P2PAwaiter(comm), pr_{src, tag, buf, nullptr}, t_start_(t_start) {}
  bool await_suspend(std::coroutine_handle<> h) {
    enter(h);
    recv_leg(sim::Cont::member<&RecvAwaiter::post_now>(this));
    return suspended();
  }
  Status await_resume() {
    scope_.leave();
    const Status st = req_.status();
    comm_->trace(prof::EventKind::kRecv, "Recv", st.source, st.bytes,
                 t_start_);
    return st;
  }

 private:
  void post_now() {
    post_recv(pr_, req_, sim::Cont::member<&RecvAwaiter::posted>(this));
  }
  void posted() { wait_leg(req_); }

  PostedRecv pr_;
  Request req_;
  double t_start_;
};

/// Both legs in flight at once: post the receive, start the send, wait
/// for the send and then for the receive. The wait for the send goes
/// through a frame-free Trigger waiter, so its wake-up is the event that
/// resumed the coroutine this replaces. `traced` is the public call
/// (profiler record, trace); sendrecv_internal passes false.
class [[nodiscard]] Comm::SendrecvAwaiter : public Comm::P2PAwaiter {
 public:
  SendrecvAwaiter(Comm& comm, View sendbuf, Rank dst, Tag stag,
                  View recvbuf, Rank src, Tag rtag, bool traced,
                  double t_start)
      : P2PAwaiter(comm),
        op_{Envelope{comm.rank_, dst, stag, sendbuf.bytes()}, sendbuf,
            nullptr, {}},
        pr_{src, rtag, recvbuf, nullptr},
        traced_(traced),
        t_start_(t_start) {}
  bool await_suspend(std::coroutine_handle<> h) {
    enter(h);
    recv_leg(sim::Cont::member<&SendrecvAwaiter::post_now>(this));
    return suspended();
  }
  Status await_resume();

 private:
  void post_now() {
    post_recv(pr_, rreq_, sim::Cont::member<&SendrecvAwaiter::posted>(this));
  }
  void posted();
  void started();
  void sent() { wait_leg(rreq_); }

  SendOp op_;
  PostedRecv pr_;
  Request sreq_;
  Request rreq_;
  bool traced_;
  double t_start_;
};

}  // namespace mns::mpi
