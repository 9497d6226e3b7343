#include "microbench/microbench.hpp"

#include <algorithm>
#include <cmath>

namespace mns::microbench {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::Request;
using mpi::View;
using sim::Task;
using sim::Time;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;  // the paper's "MB"

// Stable synthetic buffer identities per rank/role. Distinct enough that
// send/recv buffers never collide across ranks.
std::uint64_t send_addr(int rank) {
  return 0x1000'0000ULL + static_cast<std::uint64_t>(rank) * 0x100'0000ULL;
}
std::uint64_t recv_addr(int rank) {
  return 0x9000'0000ULL + static_cast<std::uint64_t>(rank) * 0x100'0000ULL;
}

ClusterConfig pair_config(Net net, const Options& opt) {
  return ClusterConfig{
      .nodes = 2, .ppn = 1, .net = net, .bus = opt.bus, .variant = opt.variant};
}
ClusterConfig smp_config(Net net, const Options& opt) {
  return ClusterConfig{
      .nodes = 1, .ppn = 2, .net = net, .bus = opt.bus, .variant = opt.variant};
}

/// Deterministic R%-reuse pattern: iteration i reuses the base buffer iff
/// the cumulative reuse count stays at R per 100 iterations.
bool reuse_this_iter(int i, int reuse_percent) {
  const auto upto = [reuse_percent](int k) {
    return (static_cast<long>(k) * reuse_percent) / 100;
  };
  return upto(i + 1) > upto(i);
}

/// `iters` ping-pong round trips between ranks 0 and 1.
Task<> ping_pong(Comm& comm, View sbuf, View rbuf, int iters) {
  for (int i = 0; i < iters; ++i) {
    if (comm.rank() == 0) {
      co_await comm.send(sbuf, 1, 0);
      co_await comm.recv(rbuf, 1, 0);
    } else {
      co_await comm.recv(rbuf, 0, 0);
      co_await comm.send(sbuf, 0, 0);
    }
  }
}

/// One-way ping-pong latency (us) between the two ranks of `cfg`.
std::vector<Point> ping_pong_latency(const ClusterConfig& cfg,
                                     const std::vector<std::uint64_t>& sizes,
                                     const Options& opt) {
  Cluster c(cfg);
  std::vector<Point> out;
  for (const auto size : sizes) {
    double us = 0;
    c.run([&](Comm& comm) -> Task<> {
      const View sbuf = View::synth(send_addr(comm.rank()), size);
      const View rbuf = View::synth(recv_addr(comm.rank()), size);
      co_await comm.barrier();
      // Warm-up (registration caches, NIC translations).
      co_await ping_pong(comm, sbuf, rbuf, 5);
      const double t0 = comm.wtime();
      co_await ping_pong(comm, sbuf, rbuf, opt.iters);
      if (comm.rank() == 0) {
        us = (comm.wtime() - t0) / (2.0 * opt.iters) * 1e6;
      }
    });
    out.push_back({size, us});
  }
  return out;
}

}  // namespace

// --------------------------------------------------------------------------
// Fig. 1: latency
// --------------------------------------------------------------------------

std::vector<Point> latency(Net net, std::vector<std::uint64_t> sizes,
                           Options opt) {
  return ping_pong_latency(pair_config(net, opt), sizes, opt);
}

// --------------------------------------------------------------------------
// Fig. 2: uni-directional bandwidth with window W
// --------------------------------------------------------------------------

std::vector<Point> bandwidth(Net net, std::vector<std::uint64_t> sizes,
                             Options opt) {
  Cluster c(pair_config(net, opt));
  std::vector<Point> out;
  for (const auto size : sizes) {
    double mbps = 0;
    c.run([&](Comm& comm) -> Task<> {
      const View sbuf = View::synth(send_addr(comm.rank()), size);
      const View rbuf = View::synth(recv_addr(comm.rank()), size);
      View ack = View::synth(recv_addr(comm.rank()) + 0x800000, 4);
      co_await comm.barrier();
      if (comm.rank() == 0) {
        // Warm-up window.
        {
          std::vector<Request> reqs;
          for (int w = 0; w < opt.window; ++w) {
            reqs.push_back(co_await comm.isend(sbuf, 1, 0));
          }
          co_await comm.wait_all(std::move(reqs));
        }
        const double t0 = comm.wtime();
        for (int rep = 0; rep < opt.reps; ++rep) {
          std::vector<Request> reqs;
          for (int w = 0; w < opt.window; ++w) {
            reqs.push_back(co_await comm.isend(sbuf, 1, 0));
          }
          co_await comm.wait_all(std::move(reqs));
        }
        co_await comm.recv(ack, 1, 1);  // all delivered
        const double dt = comm.wtime() - t0;
        mbps = static_cast<double>(opt.reps) * opt.window *
               static_cast<double>(size) / dt / kMiB;
      } else {
        {
          std::vector<Request> reqs;
          for (int w = 0; w < opt.window; ++w) {
            reqs.push_back(co_await comm.irecv(rbuf, 0, 0));
          }
          co_await comm.wait_all(std::move(reqs));
        }
        for (int rep = 0; rep < opt.reps; ++rep) {
          std::vector<Request> reqs;
          for (int w = 0; w < opt.window; ++w) {
            reqs.push_back(co_await comm.irecv(rbuf, 0, 0));
          }
          co_await comm.wait_all(std::move(reqs));
        }
        co_await comm.send(ack, 0, 1);
      }
    });
    out.push_back({size, mbps});
  }
  return out;
}

// --------------------------------------------------------------------------
// Fig. 3: host overhead
// --------------------------------------------------------------------------

std::vector<Point> host_overhead(Net net, std::vector<std::uint64_t> sizes,
                                 Options opt) {
  Cluster c(pair_config(net, opt));
  std::vector<Point> out;
  for (const auto size : sizes) {
    Time before0, before1;
    c.run([&](Comm& comm) -> Task<> {
      const View sbuf = View::synth(send_addr(comm.rank()), size);
      const View rbuf = View::synth(recv_addr(comm.rank()), size);
      co_await comm.barrier();
      co_await ping_pong(comm, sbuf, rbuf, 5);  // warm-up
      (comm.rank() == 0 ? before0 : before1) = comm.cpu().overhead_time();
      co_await ping_pong(comm, sbuf, rbuf, opt.iters);
    });
    const Time total = (c.cpu(0).overhead_time() - before0) +
                       (c.cpu(1).overhead_time() - before1);
    // 2*iters messages; each message's overhead spans sender + receiver.
    out.push_back({size, total.to_us() / (2.0 * opt.iters)});
  }
  return out;
}

// --------------------------------------------------------------------------
// Fig. 4: bi-directional latency
// --------------------------------------------------------------------------

std::vector<Point> bidir_latency(Net net, std::vector<std::uint64_t> sizes,
                                 Options opt) {
  Cluster c(pair_config(net, opt));
  std::vector<Point> out;
  for (const auto size : sizes) {
    double us = 0;
    c.run([&](Comm& comm) -> Task<> {
      const int peer = 1 - comm.rank();
      const View sbuf = View::synth(send_addr(comm.rank()), size);
      const View rbuf = View::synth(recv_addr(comm.rank()), size);
      co_await comm.barrier();
      for (int i = 0; i < 5 + opt.iters; ++i) {
        if (i == 5) {
          co_await comm.barrier();
          if (comm.rank() == 0) us = comm.wtime();
        }
        Request rreq = co_await comm.irecv(rbuf, peer, 0);
        Request sreq = co_await comm.isend(sbuf, peer, 0);
        co_await comm.wait(sreq);
        co_await comm.wait(rreq);
      }
      if (comm.rank() == 0) {
        us = (comm.wtime() - us) / opt.iters * 1e6;
      }
    });
    out.push_back({size, us});
  }
  return out;
}

// --------------------------------------------------------------------------
// Fig. 5: bi-directional bandwidth (aggregate)
// --------------------------------------------------------------------------

std::vector<Point> bidir_bandwidth(Net net, std::vector<std::uint64_t> sizes,
                                   Options opt) {
  Cluster c(pair_config(net, opt));
  std::vector<Point> out;
  for (const auto size : sizes) {
    double mbps = 0;
    c.run([&](Comm& comm) -> Task<> {
      const int peer = 1 - comm.rank();
      const View sbuf = View::synth(send_addr(comm.rank()), size);
      const View rbuf = View::synth(recv_addr(comm.rank()), size);
      co_await comm.barrier();
      double t0 = 0;
      for (int rep = 0; rep < 1 + opt.reps; ++rep) {
        if (rep == 1) {
          co_await comm.barrier();
          t0 = comm.wtime();
        }
        std::vector<Request> reqs;
        for (int w = 0; w < opt.window; ++w) {
          reqs.push_back(co_await comm.irecv(rbuf, peer, 0));
        }
        for (int w = 0; w < opt.window; ++w) {
          reqs.push_back(co_await comm.isend(sbuf, peer, 0));
        }
        co_await comm.wait_all(std::move(reqs));
      }
      co_await comm.barrier();
      if (comm.rank() == 0) {
        const double dt = comm.wtime() - t0;
        mbps = 2.0 * opt.reps * opt.window * static_cast<double>(size) / dt /
               kMiB;
      }
    });
    out.push_back({size, mbps});
  }
  return out;
}

// --------------------------------------------------------------------------
// Fig. 6: overlap potential
// --------------------------------------------------------------------------

namespace {

/// One timed exchange phase with computation `comp_us` between post and
/// wait; returns the mean round time in us.
double overlap_round(Cluster& c, std::uint64_t size, double comp_us,
                     int iters) {
  double us = 0;
  c.run([&](Comm& comm) -> Task<> {
    const int peer = 1 - comm.rank();
    const View sbuf = View::synth(send_addr(comm.rank()), size);
    const View rbuf = View::synth(recv_addr(comm.rank()), size);
    co_await comm.barrier();
    const double t0 = comm.wtime();
    for (int i = 0; i < iters; ++i) {
      Request rreq = co_await comm.irecv(rbuf, peer, 0);
      Request sreq = co_await comm.isend(sbuf, peer, 0);
      if (comp_us > 0) co_await comm.compute(comp_us * 1e-6);
      co_await comm.wait(sreq);
      co_await comm.wait(rreq);
    }
    co_await comm.barrier();
    if (comm.rank() == 0) us = (comm.wtime() - t0) / iters * 1e6;
  });
  return us;
}

}  // namespace

std::vector<Point> overlap_potential(Net net,
                                     std::vector<std::uint64_t> sizes,
                                     Options opt) {
  Cluster c(pair_config(net, opt));
  const int iters = std::max(4, opt.iters / 8);
  std::vector<Point> out;
  for (const auto size : sizes) {
    overlap_round(c, size, 0.0, 2);  // warm-up
    const double base = overlap_round(c, size, 0.0, iters);
    const double budget = base * 1.01 + 0.3;  // "does not increase latency"
    double lo = 0.0, hi = 2.0 * base + 600.0;
    if (overlap_round(c, size, hi, iters) <= budget) {
      lo = hi;  // fully overlappable within the probe range
    } else {
      for (int step = 0; step < 22; ++step) {
        const double mid = 0.5 * (lo + hi);
        if (overlap_round(c, size, mid, iters) <= budget) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    out.push_back({size, lo});
  }
  return out;
}

// --------------------------------------------------------------------------
// Figs. 7/8: buffer reuse
// --------------------------------------------------------------------------

std::vector<Point> buffer_reuse_latency(Net net,
                                        std::vector<std::uint64_t> sizes,
                                        int reuse_percent, Options opt) {
  std::vector<Point> out;
  for (const auto size : sizes) {
    // Fresh cluster per size: cold caches are the point of this test.
    Cluster c(pair_config(net, opt));
    double us = 0;
    c.run([&](Comm& comm) -> Task<> {
      // Fresh-buffer identities march through a large arena.
      std::uint64_t fresh_s = send_addr(comm.rank()) + 0x4000'0000ULL;
      std::uint64_t fresh_r = recv_addr(comm.rank()) + 0x4000'0000ULL;
      const std::uint64_t stride = (size + 4096) & ~4095ULL;
      co_await comm.barrier();
      const double t0 = comm.wtime();
      for (int i = 0; i < opt.iters; ++i) {
        View sbuf, rbuf;
        if (reuse_this_iter(i, reuse_percent)) {
          sbuf = View::synth(send_addr(comm.rank()), size);
          rbuf = View::synth(recv_addr(comm.rank()), size);
        } else {
          sbuf = View::synth(fresh_s, size);
          rbuf = View::synth(fresh_r, size);
          fresh_s += stride;
          fresh_r += stride;
        }
        co_await ping_pong(comm, sbuf, rbuf, 1);
      }
      if (comm.rank() == 0) {
        us = (comm.wtime() - t0) / (2.0 * opt.iters) * 1e6;
      }
    });
    out.push_back({size, us});
  }
  return out;
}

std::vector<Point> buffer_reuse_bandwidth(Net net,
                                          std::vector<std::uint64_t> sizes,
                                          int reuse_percent, Options opt) {
  std::vector<Point> out;
  for (const auto size : sizes) {
    Cluster c(pair_config(net, opt));
    double mbps = 0;
    c.run([&](Comm& comm) -> Task<> {
      std::uint64_t fresh_s = send_addr(comm.rank()) + 0x4000'0000ULL;
      std::uint64_t fresh_r = recv_addr(comm.rank()) + 0x4000'0000ULL;
      const std::uint64_t stride = (size + 4096) & ~4095ULL;
      View ack = View::synth(recv_addr(comm.rank()) + 0x800000, 4);
      co_await comm.barrier();
      const double t0 = comm.wtime();
      int iter = 0;
      for (int rep = 0; rep < opt.reps; ++rep) {
        std::vector<Request> reqs;
        for (int w = 0; w < opt.window; ++w, ++iter) {
          const bool reuse = reuse_this_iter(iter, reuse_percent);
          if (comm.rank() == 0) {
            View sbuf = reuse ? View::synth(send_addr(0), size)
                              : View::synth(fresh_s, size);
            if (!reuse) fresh_s += stride;
            reqs.push_back(co_await comm.isend(sbuf, 1, 0));
          } else {
            View rbuf = reuse ? View::synth(recv_addr(1), size)
                              : View::synth(fresh_r, size);
            if (!reuse) fresh_r += stride;
            reqs.push_back(co_await comm.irecv(rbuf, 0, 0));
          }
        }
        co_await comm.wait_all(std::move(reqs));
      }
      if (comm.rank() == 0) {
        co_await comm.recv(ack, 1, 1);
        const double dt = comm.wtime() - t0;
        mbps = static_cast<double>(opt.reps) * opt.window *
               static_cast<double>(size) / dt / kMiB;
      } else {
        co_await comm.send(ack, 0, 1);
      }
    });
    out.push_back({size, mbps});
  }
  return out;
}

// --------------------------------------------------------------------------
// Figs. 9/10: intra-node
// --------------------------------------------------------------------------

std::vector<Point> intranode_latency(Net net,
                                     std::vector<std::uint64_t> sizes,
                                     Options opt) {
  return ping_pong_latency(smp_config(net, opt), sizes, opt);
}

std::vector<Point> intranode_bandwidth(Net net,
                                       std::vector<std::uint64_t> sizes,
                                       Options opt) {
  Cluster c(smp_config(net, opt));
  std::vector<Point> out;
  for (const auto size : sizes) {
    double mbps = 0;
    c.run([&](Comm& comm) -> Task<> {
      const View sbuf = View::synth(send_addr(comm.rank()), size);
      const View rbuf = View::synth(recv_addr(comm.rank()), size);
      View ack = View::synth(recv_addr(comm.rank()) + 0x800000, 4);
      co_await comm.barrier();
      if (comm.rank() == 0) {
        const double t0 = comm.wtime();
        for (int rep = 0; rep < opt.reps; ++rep) {
          std::vector<Request> reqs;
          for (int w = 0; w < opt.window; ++w) {
            reqs.push_back(co_await comm.isend(sbuf, 1, 0));
          }
          co_await comm.wait_all(std::move(reqs));
        }
        co_await comm.recv(ack, 1, 1);
        const double dt = comm.wtime() - t0;
        mbps = static_cast<double>(opt.reps) * opt.window *
               static_cast<double>(size) / dt / kMiB;
      } else {
        for (int rep = 0; rep < opt.reps; ++rep) {
          std::vector<Request> reqs;
          for (int w = 0; w < opt.window; ++w) {
            reqs.push_back(co_await comm.irecv(rbuf, 0, 0));
          }
          co_await comm.wait_all(std::move(reqs));
        }
        co_await comm.send(ack, 0, 1);
      }
    });
    out.push_back({size, mbps});
  }
  return out;
}

// --------------------------------------------------------------------------
// Figs. 11/12: collectives (PMB-style)
// --------------------------------------------------------------------------

namespace {

template <class CollFn>
std::vector<Point> collective_latency(Net net,
                                      const std::vector<std::uint64_t>& sizes,
                                      const Options& opt, CollFn&& fn) {
  Cluster c({.nodes = opt.nodes,
             .ppn = 1,
             .net = net,
             .bus = opt.bus,
             .variant = opt.variant});
  std::vector<Point> out;
  for (const auto size : sizes) {
    double us = 0;
    c.run([&](Comm& comm) -> Task<> {
      co_await comm.barrier();
      for (int i = 0; i < 3; ++i) co_await fn(comm, size);  // warm-up
      co_await comm.barrier();
      const double t0 = comm.wtime();
      for (int i = 0; i < opt.iters; ++i) co_await fn(comm, size);
      co_await comm.barrier();
      if (comm.rank() == 0) us = (comm.wtime() - t0) / opt.iters * 1e6;
    });
    out.push_back({size, us});
  }
  return out;
}

}  // namespace

std::vector<Point> alltoall_latency(Net net, std::vector<std::uint64_t> sizes,
                                    Options opt) {
  return collective_latency(
      net, sizes, opt, [](Comm& comm, std::uint64_t size) {
        const auto p = static_cast<std::uint64_t>(comm.size());
        return comm.alltoall(View::synth(send_addr(comm.rank()), p * size),
                             View::synth(recv_addr(comm.rank()), p * size),
                             size);
      });
}

std::vector<Point> allreduce_latency(Net net,
                                     std::vector<std::uint64_t> sizes,
                                     Options opt) {
  return collective_latency(
      net, sizes, opt, [](Comm& comm, std::uint64_t size) {
        return comm.allreduce(View::synth(send_addr(comm.rank()), size),
                              size, mpi::Dtype::kByte, mpi::ROp::kSum);
      });
}

std::vector<Point> bcast_latency(Net net, std::vector<std::uint64_t> sizes,
                                 Options opt) {
  return collective_latency(
      net, sizes, opt, [](Comm& comm, std::uint64_t size) {
        return comm.bcast(View::synth(send_addr(comm.rank()), size), 0);
      });
}

double barrier_latency(Net net, Options opt) {
  return collective_latency(net, {0}, opt,
                            [](Comm& comm, std::uint64_t) {
                              return comm.barrier();
                            })[0]
      .value;
}

// --------------------------------------------------------------------------
// Fig. 13: memory usage
// --------------------------------------------------------------------------

std::vector<Point> memory_usage(Net net, std::size_t max_nodes) {
  std::vector<Point> out;
  for (std::size_t n = 2; n <= max_nodes; ++n) {
    ClusterConfig cfg{.nodes = n, .ppn = 1, .net = net};
    Cluster c(cfg);
    c.run([](Comm& comm) -> Task<> { co_await comm.barrier(); });
    out.push_back(
        {n, static_cast<double>(c.device_memory_bytes(0)) / kMiB});
  }
  return out;
}

}  // namespace mns::microbench
