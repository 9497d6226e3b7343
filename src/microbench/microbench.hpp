// The paper's extended MPI micro-benchmark suite (Section 3), as reusable
// measurement kernels. Each function builds the requested cluster, runs
// the benchmark in simulated time, and returns paper-style series. The
// bench binaries print them per figure; the calibration tests assert they
// stay inside tolerance bands of the published values.
//
// Units follow the paper: latencies/overheads in microseconds, bandwidth
// in MB/s with MB = 2^20 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"

namespace mns::microbench {

struct Point {
  std::uint64_t size;
  double value;
};

struct Options {
  int iters = 50;       // ping-pong iterations per size
  int window = 16;      // bandwidth window W
  int reps = 12;        // windows per bandwidth measurement
  std::size_t nodes = 8;
  cluster::Bus bus = cluster::Bus::kDefault;
  cluster::Variant variant{};  // the mechanisms of every cluster built
};

/// Fig. 1 / Fig. 26: ping-pong latency (one-way, us).
std::vector<Point> latency(cluster::Net net, std::vector<std::uint64_t> sizes,
                           Options opt = {});

/// Fig. 2 / Fig. 27: uni-directional bandwidth (MB/s) with window W.
std::vector<Point> bandwidth(cluster::Net net,
                             std::vector<std::uint64_t> sizes,
                             Options opt = {});

/// Fig. 3: host overhead in the latency test (us, sender+receiver).
std::vector<Point> host_overhead(cluster::Net net,
                                 std::vector<std::uint64_t> sizes,
                                 Options opt = {});

/// Fig. 4: bi-directional latency (us per simultaneous exchange).
std::vector<Point> bidir_latency(cluster::Net net,
                                 std::vector<std::uint64_t> sizes,
                                 Options opt = {});

/// Fig. 5: bi-directional aggregate bandwidth (MB/s), window W.
std::vector<Point> bidir_bandwidth(cluster::Net net,
                                   std::vector<std::uint64_t> sizes,
                                   Options opt = {});

/// Fig. 6: communication/computation overlap potential (us): the largest
/// computation that does not lengthen a simultaneous exchange.
std::vector<Point> overlap_potential(cluster::Net net,
                                     std::vector<std::uint64_t> sizes,
                                     Options opt = {});

/// Figs. 7/8: latency / bandwidth at a buffer-reuse percentage (0..100).
std::vector<Point> buffer_reuse_latency(cluster::Net net,
                                        std::vector<std::uint64_t> sizes,
                                        int reuse_percent, Options opt = {});
std::vector<Point> buffer_reuse_bandwidth(cluster::Net net,
                                          std::vector<std::uint64_t> sizes,
                                          int reuse_percent,
                                          Options opt = {});

/// Figs. 9/10: intra-node (SMP) latency / bandwidth, 2 ranks on 1 node.
std::vector<Point> intranode_latency(cluster::Net net,
                                     std::vector<std::uint64_t> sizes,
                                     Options opt = {});
std::vector<Point> intranode_bandwidth(cluster::Net net,
                                       std::vector<std::uint64_t> sizes,
                                       Options opt = {});

/// Figs. 11/12: collective latency (us) on `opt.nodes` nodes (PMB-style).
std::vector<Point> alltoall_latency(cluster::Net net,
                                    std::vector<std::uint64_t> sizes,
                                    Options opt = {});
std::vector<Point> allreduce_latency(cluster::Net net,
                                     std::vector<std::uint64_t> sizes,
                                     Options opt = {});
/// The same timer over MPI_Bcast from rank 0, and over MPI_Barrier (us).
std::vector<Point> bcast_latency(cluster::Net net,
                                 std::vector<std::uint64_t> sizes,
                                 Options opt = {});
double barrier_latency(cluster::Net net, Options opt = {});

/// Fig. 13: MPI memory usage (MB) of a barrier program vs node count.
std::vector<Point> memory_usage(cluster::Net net, std::size_t max_nodes);

}  // namespace mns::microbench
