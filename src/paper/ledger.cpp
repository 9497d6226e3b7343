#include "paper/ledger.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "microbench/microbench.hpp"

namespace mns::paper {

namespace {

using cluster::Net;
using microbench::Options;

// The point of a one-size kernel call.
double one(const std::vector<microbench::Point>& pts) {
  return pts.front().value;
}

Options pci_bus() {
  Options opt;
  opt.bus = cluster::Bus::kPci66;
  return opt;
}

double latency(Net net, std::uint64_t x) {
  return one(microbench::latency(net, {x}));
}
double bandwidth(Net net, std::uint64_t x) {
  return one(microbench::bandwidth(net, {x}));
}
double host_overhead(Net net, std::uint64_t x) {
  return one(microbench::host_overhead(net, {x}));
}
double bidir_latency(Net net, std::uint64_t x) {
  return one(microbench::bidir_latency(net, {x}));
}
double bidir_bandwidth(Net net, std::uint64_t x) {
  return one(microbench::bidir_bandwidth(net, {x}));
}
double intranode_latency(Net net, std::uint64_t x) {
  return one(microbench::intranode_latency(net, {x}));
}
double intranode_bandwidth(Net net, std::uint64_t x) {
  return one(microbench::intranode_bandwidth(net, {x}));
}
// Collectives run on Options' default 8 nodes.
double alltoall(Net net, std::uint64_t x) {
  return one(microbench::alltoall_latency(net, {x}));
}
double allreduce(Net net, std::uint64_t x) {
  return one(microbench::allreduce_latency(net, {x}));
}
double memory(Net net, std::uint64_t nodes) {
  return microbench::memory_usage(net, nodes).back().value;
}
double pci_latency_penalty(Net net, std::uint64_t x) {
  return one(microbench::latency(net, {x}, pci_bus())) - latency(net, x);
}
double pci_bandwidth(Net net, std::uint64_t x) {
  return one(microbench::bandwidth(net, {x}, pci_bus()));
}

constexpr Net kIb = Net::kInfiniBand;
constexpr Net kMy = Net::kMyrinet;
constexpr Net kQs = Net::kQuadrics;
constexpr std::uint64_t k64K = 64 << 10;
constexpr std::uint64_t k1M = 1 << 20;
constexpr Stated kValue = Stated::kValue;
constexpr Stated kBelow = Stated::kBelow;
constexpr Stated kAbove = Stated::kAbove;
constexpr Kind kTarget = Kind::kTarget;
constexpr Kind kDeviation = Kind::kDeviation;
constexpr double kInf = std::numeric_limits<double>::infinity();

// {id, figure, net, x, stated, paper, unit, kind, band, measure}
const MicroRow kMicro[] = {
    {"fig01_iba", "Fig 1 latency", kIb, 4, kValue, 6.8, "us", kTarget,
     Band::pct(8), latency},
    {"fig01_myri", "Fig 1 latency", kMy, 4, kValue, 6.7, "us", kTarget,
     Band::pct(8), latency},
    {"fig01_qsn", "Fig 1 latency", kQs, 4, kValue, 4.6, "us", kTarget,
     Band::pct(8), latency},
    {"fig02_iba", "Fig 2 bandwidth, W=16", kIb, k1M, kValue, 841, "MB/s",
     kTarget, Band::pct(5), bandwidth},
    {"fig02_myri", "Fig 2 bandwidth, W=16", kMy, k1M, kValue, 235, "MB/s",
     kTarget, Band::pct(5), bandwidth},
    {"fig02_qsn", "Fig 2 bandwidth, W=16", kQs, k1M, kValue, 308, "MB/s",
     kTarget, Band::pct(5), bandwidth},
    {"fig03_iba", "Fig 3 host overhead", kIb, 4, kValue, 1.7, "us", kTarget,
     Band::pct(12), host_overhead},
    {"fig03_myri", "Fig 3 host overhead", kMy, 4, kValue, 0.8, "us", kTarget,
     Band::pct(12), host_overhead},
    {"fig03_qsn", "Fig 3 host overhead", kQs, 4, kValue, 3.3, "us", kTarget,
     Band::pct(12), host_overhead},
    {"fig04_iba", "Fig 4 bidir latency", kIb, 4, kValue, 7.0, "us", kTarget,
     Band::pct(10), bidir_latency},
    {"fig04_myri", "Fig 4 bidir latency", kMy, 4, kValue, 10.1, "us",
     kDeviation, Band::pct(30), bidir_latency},
    {"fig04_qsn", "Fig 4 bidir latency", kQs, 4, kValue, 7.4, "us",
     kDeviation, Band::pct(35), bidir_latency},
    {"fig05_iba", "Fig 5 bidir bandwidth", kIb, k1M, kValue, 900, "MB/s",
     kTarget, Band::pct(5), bidir_bandwidth},
    {"fig05_myri_64k", "Fig 5 bidir bandwidth", kMy, k64K, kValue, 473,
     "MB/s", kTarget, Band::pct(10), bidir_bandwidth},
    // Past 256 KB the LANai SRAM bounds Myrinet below 340 MB/s.
    {"fig05_myri_1m", "Fig 5 bidir bandwidth", kMy, k1M, kBelow, 340, "MB/s",
     kTarget, Band::open(290, 345), bidir_bandwidth},
    {"fig05_qsn", "Fig 5 bidir bandwidth", kQs, k1M, kValue, 375, "MB/s",
     kTarget, Band::pct(8), bidir_bandwidth},
    {"fig09_iba", "Fig 9 intra-node latency", kIb, 4, kValue, 1.6, "us",
     kTarget, Band::pct(10), intranode_latency},
    {"fig09_myri", "Fig 9 intra-node latency", kMy, 4, kValue, 1.3, "us",
     kTarget, Band::pct(10), intranode_latency},
    // Worse than Quadrics' own 4.6 us inter-node latency (NIC loopback).
    {"fig09_qsn", "Fig 9 intra-node latency", kQs, 4, kAbove, 4.6, "us",
     kTarget, Band::open(4.6, kInf), intranode_latency},
    {"fig10_iba", "Fig 10 intra-node bandwidth", kIb, k1M, kAbove, 450,
     "MB/s", kTarget, Band::pct(8), intranode_bandwidth},
    {"fig11_iba", "Fig 11 alltoall, 8 nodes", kIb, 4, kValue, 31, "us",
     kTarget, Band::pct(10), alltoall},
    {"fig11_myri", "Fig 11 alltoall, 8 nodes", kMy, 4, kValue, 36, "us",
     kTarget, Band::pct(20), alltoall},
    {"fig11_qsn", "Fig 11 alltoall, 8 nodes", kQs, 4, kValue, 67, "us",
     kTarget, Band::pct(10), alltoall},
    {"fig12_iba", "Fig 12 allreduce, 8 nodes", kIb, 4, kValue, 46, "us",
     kDeviation, Band::pct(15), allreduce},
    {"fig12_myri", "Fig 12 allreduce, 8 nodes", kMy, 4, kValue, 35, "us",
     kDeviation, Band::pct(32), allreduce},
    {"fig12_qsn", "Fig 12 allreduce, 8 nodes", kQs, 4, kValue, 28, "us",
     kDeviation, Band::pct(20), allreduce},
    {"fig13_iba_2n", "Fig 13 memory, x nodes", kIb, 2, kValue, 25, "MB",
     kTarget, Band::abs(3), memory},
    {"fig13_iba_8n", "Fig 13 memory, x nodes", kIb, 8, kValue, 55, "MB",
     kTarget, Band::abs(5), memory},
    {"fig26_iba", "Fig 26 PCI latency penalty", kIb, 4, kValue, 0.6, "us",
     kTarget, Band::abs(0.45), pci_latency_penalty},
    {"fig27_iba", "Fig 27 PCI bandwidth", kIb, k1M, kValue, 378, "MB/s",
     kTarget, Band::pct(6), pci_bandwidth},
};

// Per app: {2, 4, 8 nodes} on IBA, Myri and QSN.
const ScalingRow kTable2[] = {
    {"is",
     {{{6.73, 3.30, 1.78},
       {7.86, 4.99, 2.89},
       {7.04, 4.71, 2.47}}}},
    {"cg",
     {{{132.26, 81.64, 28.68},
       {135.76, 74.36, 29.65},
       {135.05, 73.10, 30.12}}}},
    {"mg",
     {{{23.60, 13.41, 5.81},
       {25.77, 14.87, 6.29},
       {24.07, 13.75, 6.04}}}},
    {"lu",
     {{{648.53, 319.57, 165.53},
       {708.43, 338.70, 170.70},
       {667.30, 314.55, 168.18}}}},
    // FT does not fit on 2 nodes.
    {"ft",
     {{{kNotRun, 75.50, 37.92},
       {kNotRun, 82.74, 41.40},
       {kNotRun, 81.89, 43.23}}}},
    {"s3d50",
     {{{13.58, 7.18, 3.59},
       {13.33, 6.96, 3.57},
       {14.94, 7.37, 4.38}}}},
    {"s3d150",
     {{{346.43, 179.35, 91.43},
       {339.22, 176.94, 89.66},
       {343.60, 177.66, 95.99}}}},
};

const ProfileRow kTable1[] = {
    {"is", 8, {14, 11, 0, 11}},       {"cg", 8, {16113, 0, 11856, 0}},
    {"mg", 8, {1607, 630, 3702, 0}},  {"lu", 8, {100021, 0, 1008, 0}},
    {"ft", 8, {24, 0, 0, 22}},        {"sp", 4, {9, 0, 9636, 0}},
    {"bt", 4, {9, 0, 4836, 0}},       {"s3d50", 8, {19236, 0, 0, 0}},
    {"s3d150", 8, {28836, 28800, 0, 0}},
};

const ProfileRow kTable3[] = {
    {"is", 8, {0, 0, 0, 0}},
    {"cg", 8, {0, 0, 13984, 63591}},
    {"mg", 8, {0, 0, 2922, 270400}},
    {"lu", 8, {0, 0, 508, 311692}},
    {"ft", 8, {0, 0, 0, 0}},
    {"sp", 4, {4818, 263970, 4818, 263970}},
    {"bt", 4, {2418, 293108, 2418, 293108}},
    {"s3d50", 8, {0, 0, 0, 0}},
    {"s3d150", 8, {0, 0, 0, 0}},
};

const ProfileRow kTable4[] = {
    {"is", 8, {81.08, 27.40}},    {"cg", 8, {99.99, 99.98}},
    {"mg", 8, {99.80, 99.83}},    {"lu", 8, {99.99, 99.80}},
    {"ft", 8, {86.00, 91.30}},    {"sp", 4, {99.92, 99.89}},
    {"bt", 4, {99.87, 99.83}},    {"s3d50", 8, {99.96, 99.99}},
    {"s3d150", 8, {99.99, 99.99}},
};

const ProfileRow kTable5[] = {
    {"is", 8, {35, 97.22, 100.00}}, {"cg", 8, {2, 0.01, 0.00}},
    {"mg", 8, {101, 1.70, 0.03}},   {"lu", 8, {18, 0.02, 0.00}},
    {"ft", 8, {47, 100.00, 100.00}}, {"sp", 4, {11, 0.09, 0.02}},
    {"bt", 4, {11, 0.22, 0.01}},    {"s3d50", 8, {39, 0.20, 0.00}},
    {"s3d150", 8, {39, 0.07, 0.00}},
};

const ProfileRow kTable6[] = {
    {"is", 8, {100.00, 100.00}},  {"cg", 8, {42.93, 33.41}},
    {"mg", 8, {16.25, 1.43}},     {"lu", 8, {33.16, 21.89}},
    {"ft", 8, {0.00, 0.00}},      {"sp", 8, {16.41, 16.26}},
    {"bt", 8, {16.31, 16.21}},    {"s3d50", 8, {33.29, 33.11}},
    {"s3d150", 8, {33.32, 33.47}},
};

}  // namespace

std::span<const MicroRow> micro() { return kMicro; }
std::span<const ScalingRow> table2() { return kTable2; }
std::span<const ProfileRow> table1() { return kTable1; }
std::span<const ProfileRow> table3() { return kTable3; }
std::span<const ProfileRow> table4() { return kTable4; }
std::span<const ProfileRow> table5() { return kTable5; }
std::span<const ProfileRow> table6() { return kTable6; }

double table2_seconds(std::string_view app, cluster::Net net,
                      std::size_t nodes) {
  for (const ScalingRow& row : kTable2) {
    if (row.app != app) continue;
    for (std::size_t k = 0; k < 3; ++k) {
      const double s = row.seconds[static_cast<std::size_t>(net)][k];
      if ((std::size_t{2} << k) == nodes && s != kNotRun) return s;
    }
  }
  throw std::out_of_range("Table 2 has no " + std::string(app) + " on " +
                          cluster::net_name(net) + " at " +
                          std::to_string(nodes) + " nodes");
}

}  // namespace mns::paper
