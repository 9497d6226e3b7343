// mnsbench: host time the simulator needs to reproduce the paper's cells.
//
// A "cell" is one point of the paper's measurement study on its own
// Cluster: a Table 2 application run (app, net, nodes), one call of a
// micro-benchmark kernel (kernel, net, size), or the 64-node Sweep3D run
// on the partitioned executor under a transient fault plan. A workload is
// a seeded list of cells; the seed only chooses cells from fixed menus,
// and the library receives ordinary ClusterConfigs.
//
// Every cell's simulated result is checked against the value recorded in
// perfbench/recorded.tsv (simulated results never depend on host speed),
// and against the finalize audit. Host time is measured around the
// benchmark's own calls into the library's public API and, on one-thread
// workloads, scaled to a reference host speed by a gauge run between
// cells (gauge.hpp), because shared hosts drift in speed for minutes.
//
//   mnsbench --workload=nas_tab2 --seed=1 --seconds=30 [--trace=1]
//   mnsbench --list --workload=microbench --seed=3   # cell ids, one a line
//   mnsbench --record                                # regenerate the table
//
// See perfbench/run.py for the script that builds and runs this binary.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gauge.hpp"

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "microbench/microbench.hpp"
#include "prof/trace.hpp"
#include "sim/frame_pool.hpp"
#include "util/flags.hpp"

namespace {

using namespace mns;
using cluster::Net;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeded generator. The benchmark keeps its own SplitMix64 so the cell
// lists never change when the library's RNG does.
// ---------------------------------------------------------------------------

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

SplitMix stream(std::uint64_t seed, std::uint64_t pass, std::uint64_t salt) {
  SplitMix g{seed * 0x100000001B3ULL ^ (pass << 20) ^ salt};
  g.next();
  return g;
}

// ---------------------------------------------------------------------------
// Menus: every cell any seed can draw.
// ---------------------------------------------------------------------------

const Net kNets[] = {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics};

// Table 2 of the paper (class B, seconds); -1 = not run (FT needs 4 nodes).
struct Tab2Row {
  const char* app;
  double paper[3][3];  // [net][nodes 2/4/8]
};
const Tab2Row kTab2[] = {
    {"is", {{6.73, 3.30, 1.78}, {7.86, 4.99, 2.89}, {7.04, 4.71, 2.47}}},
    {"cg", {{132.26, 81.64, 28.68}, {135.76, 74.36, 29.65}, {135.05, 73.10, 30.12}}},
    {"mg", {{23.60, 13.41, 5.81}, {25.77, 14.87, 6.29}, {24.07, 13.75, 6.04}}},
    {"lu", {{648.53, 319.57, 165.53}, {708.43, 338.70, 170.70}, {667.30, 314.55, 168.18}}},
    {"ft", {{-1, 75.50, 37.92}, {-1, 82.74, 41.40}, {-1, 81.89, 43.23}}},
    {"s3d50", {{13.58, 7.18, 3.59}, {13.33, 6.96, 3.57}, {14.94, 7.37, 4.38}}},
    {"s3d150", {{346.43, 179.35, 91.43}, {339.22, 176.94, 89.66}, {343.60, 177.66, 95.99}}},
};
const std::size_t kTab2Nodes[] = {2, 4, 8};

// The paper's micro-benchmark kernels (Figs. 1-12).
enum class Kernel {
  kLatency, kBandwidth, kHostOverhead, kBidirLatency, kBidirBandwidth,
  kOverlap, kReuseLatency, kReuseBandwidth, kIntraLatency, kIntraBandwidth,
  kAlltoall, kAllreduce,
};
constexpr int kKernels = 12;
const char* const kKernelNames[kKernels] = {
    "latency", "bandwidth", "host_overhead", "bidir_latency",
    "bidir_bandwidth", "overlap", "reuse_latency", "reuse_bandwidth",
    "intranode_latency", "intranode_bandwidth", "alltoall", "allreduce"};
// Message sizes 4 B .. 1 MB in powers of four.
const std::uint64_t kMicroSizes[] = {4, 16, 64, 256, 1 << 10, 4 << 10,
                                     16 << 10, 64 << 10, 256 << 10, 1 << 20};
constexpr int kReusePercent = 50;  // Figs. 7/8 mid curve

// Published headline values (Figs. 1 and 2): 4-byte latency in us and
// 1 MB window-16 bandwidth in MB/s, per net.
const double kFig1SmallLatency[3] = {6.8, 6.7, 4.6};
const double kFig2PeakBandwidth[3] = {841, 235, 308};

// s3d64_k4: transient fault plans (no fail-stop clause). Rates are in
// packets per million on every link.
const std::uint64_t kPlanSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
struct Rates { int drop_ppm; int corrupt_ppm; };
const Rates kPlanRates[] = {{200, 0}, {0, 200}, {100, 100}};
constexpr std::size_t kS3dNodes = 64;
constexpr int kS3dPartitions = 4;

struct Cell {
  enum class Kind { kApp, kMicro } kind = Kind::kApp;
  Net net = Net::kInfiniBand;
  // kApp
  std::string app;
  std::size_t nodes = 0;
  int partitions = 1;
  std::uint64_t plan_seed = 0;  // 0: no fault plan
  Rates rates{0, 0};
  // kMicro
  Kernel kernel = Kernel::kLatency;
  std::uint64_t size = 0;

  std::string id() const {
    std::string s;
    if (kind == Kind::kMicro) {
      s = std::string(kKernelNames[static_cast<int>(kernel)]) + "/" +
          cluster::net_name(net) + "/" + std::to_string(size);
    } else {
      s = app + "/" + cluster::net_name(net) + "/" + std::to_string(nodes);
      if (plan_seed != 0) {
        s += "/f" + std::to_string(plan_seed) + "-d" +
             std::to_string(rates.drop_ppm) + "-c" +
             std::to_string(rates.corrupt_ppm);
      }
    }
    return s;
  }
};

Cell app_cell(const char* app, Net net, std::size_t nodes) {
  Cell c;
  c.app = app;
  c.net = net;
  c.nodes = nodes;
  return c;
}

Cell micro_cell(Kernel k, Net net, std::uint64_t size) {
  Cell c;
  c.kind = Cell::Kind::kMicro;
  c.kernel = k;
  c.net = net;
  c.size = size;
  return c;
}

Cell s3d_cell(std::uint64_t plan_seed, Rates r) {
  Cell c = app_cell("s3d50", Net::kInfiniBand, kS3dNodes);
  c.partitions = kS3dPartitions;
  c.plan_seed = plan_seed;
  c.rates = r;
  return c;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* why;
  std::vector<Cell> (*menu)();
  // Cells of pass `pass` for `seed`; every cell is on the menu.
  std::vector<Cell> (*pass_cells)(std::uint64_t seed, std::uint64_t pass);
};

std::vector<Cell> nas_menu() {
  std::vector<Cell> out;
  for (const auto& row : kTab2) {
    for (int n = 0; n < 3; ++n) {
      for (int k = 0; k < 3; ++k) {
        if (row.paper[n][k] > 0) out.push_back(app_cell(row.app, kNets[n], kTab2Nodes[k]));
      }
    }
  }
  return out;
}

// Host cost per cell spans three orders of magnitude (IS on 2 nodes:
// ~1 ms; CG on 8 Myrinet nodes: ~2.5 s), so any proper subset would make a
// pass's cost depend on the seed: drawing two of the three nets per
// (app, nodes) stratum gives a 6.7 % quartile spread across seeds. A pass
// therefore takes every stratum, and the seed draws the order.
std::vector<Cell> nas_pass(std::uint64_t seed, std::uint64_t pass) {
  SplitMix g = stream(seed, pass, 0x7a62);
  std::vector<Cell> out = nas_menu();
  g.shuffle(out);
  return out;
}

std::vector<Cell> micro_menu() {
  std::vector<Cell> out;
  for (int k = 0; k < kKernels; ++k) {
    for (Net net : kNets) {
      for (std::uint64_t size : kMicroSizes) out.push_back(micro_cell(static_cast<Kernel>(k), net, size));
    }
  }
  return out;
}

// Alltoall alone is 60 % of the menu's host time, so as for nas_tab2 a
// pass takes every (kernel, net, size) cell and the seed draws the order.
std::vector<Cell> micro_pass(std::uint64_t seed, std::uint64_t pass) {
  SplitMix g = stream(seed, pass, 0x6d62);
  std::vector<Cell> out = micro_menu();
  g.shuffle(out);
  return out;
}

std::vector<Cell> s3d_menu() {
  std::vector<Cell> out;
  for (std::uint64_t s : kPlanSeeds) {
    for (const Rates& r : kPlanRates) out.push_back(s3d_cell(s, r));
  }
  return out;
}

// The seed draws the fault plan; every pass reruns that one cell.
std::vector<Cell> s3d_pass(std::uint64_t seed, std::uint64_t) {
  SplitMix g = stream(seed, 0, 0x7364);
  const std::vector<Cell> menu = s3d_menu();
  return {menu[g.below(menu.size())]};
}

const Workload kWorkloads[] = {
    {"nas_tab2",
     "All 60 Table 2 class-B skeleton cells on one thread, seeded order: "
     "engine, MPI device and fabric message work dominate, set-up is "
     "negligible.",
     nas_menu, nas_pass},
    {"microbench",
     "All 360 (kernel, net, size) calls of the Figs 1-12 micro-benchmarks, "
     "seeded order: per-call MPI cost, cluster set-up and the packet path.",
     micro_menu, micro_pass},
    {"s3d64_k4",
     "64-node Sweep3D over InfiniBand on the 4-partition executor under a "
     "seeded transient drop/corrupt plan: the only user of split flows and "
     "recovery.",
     s3d_menu, s3d_pass},
};

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (want nas_tab2|microbench|s3d64_k4)");
}

// ---------------------------------------------------------------------------
// Recorded results: the correctness oracle. One line per menu cell:
//   id  value (hex float)  now_ps  posted  delivered  tol
// Microbench cells have no cluster of their own: now_ps, posted and
// delivered are -1. `tol` is the relative tolerance on value and now_ps;
// it is 0 (exact) unless --record saw the cell's result depend on the
// process's earlier cells (see record()).
// ---------------------------------------------------------------------------

struct Outcome {
  double value = 0;          // rank-0 app seconds, or the kernel's value
  std::int64_t now_ps = -1;  // Cluster::now() after the run
  std::int64_t posted = -1;  // fabric messages posted / delivered
  std::int64_t delivered = -1;
  double tol = 0;            // recorded entries only
};

double rel_dev(double got, double want) {
  return want == 0 ? std::fabs(got) : std::fabs(got - want) / std::fabs(want);
}

double max_rel_dev(const Outcome& got, const Outcome& want) {
  return std::max(rel_dev(got.value, want.value),
                  rel_dev(static_cast<double>(got.now_ps), static_cast<double>(want.now_ps)));
}

bool matches(const Outcome& got, const Outcome& want) {
  return got.posted == want.posted && got.delivered == want.delivered &&
         (want.tol == 0 ? got.value == want.value && got.now_ps == want.now_ps
                        : max_rel_dev(got, want) <= want.tol);
}

std::string format_outcome(const std::string& id, const Outcome& o) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", o.value);
  char tol[32];
  std::snprintf(tol, sizeof tol, "%g", o.tol);
  return id + "\t" + buf + "\t" + std::to_string(o.now_ps) + "\t" +
         std::to_string(o.posted) + "\t" + std::to_string(o.delivered) + "\t" + tol;
}

std::map<std::string, Outcome> load_recorded(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read recorded results " + path);
  std::map<std::string, Outcome> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string id, value;
    Outcome o;
    if (!(ls >> id >> value >> o.now_ps >> o.posted >> o.delivered >> o.tol)) {
      throw std::runtime_error("malformed recorded line: " + line);
    }
    o.value = std::strtod(value.c_str(), nullptr);
    out[id] = o;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans (trace mode): name, host start/end, parent span, cell id.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int cell = -1;
  // Frame-pool counters of the calling thread at the span's boundaries.
  std::uint64_t frames_at_start = 0;
  std::uint64_t frames_at_end = 0;
};

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}
  void enable() { on_ = true; }
  bool on() const { return on_; }
  int open(std::string name, int cell) {
    if (!on_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_s = seconds_between(origin_, Clock::now());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.cell = cell;
    s.frames_at_start = sim::frame_pool::stats().allocated;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_between(origin_, Clock::now());
    s.frames_at_end = sim::frame_pool::stats().allocated;
    stack_.pop_back();
  }
  const std::vector<Span>& all() const { return spans_; }

  /// Self time: the span minus what its direct children cover (children
  /// run sequentially inside their parent, so they never overlap).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
    return self;
  }

 private:
  Clock::time_point origin_;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Spans& s, std::string name, int cell)
      : spans_(s), id_(s.open(std::move(name), cell)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// ---------------------------------------------------------------------------
// Per-cell measurement
// ---------------------------------------------------------------------------

// Host times and public counters of one cell. Host times are seconds;
// counters are read after Cluster::run, outside the timed region.
struct CellStats {
  std::string id;
  std::string app;  // kApp cells
  int kernel = -1;  // kMicro cells
  bool failed = false;
  std::string why;  // failure reason
  double host_s = 0;  // ctor + run + dtor (app) or the kernel call (micro)
  double ctor_s = 0, run_s = 0, dtor_s = 0;
  std::uint64_t events = 0, events_cancelled = 0;
  std::uint64_t frames = 0, frame_hits = 0;
  std::uint64_t msgs = 0, calls = 0, collective_calls = 0, bytes = 0;
  std::uint64_t posted = 0, delivered = 0, errored = 0, aborted = 0;
  std::uint64_t express = 0, express_demotions = 0;
  std::uint64_t dropped = 0, corrupted = 0, gbn_discarded = 0, retransmitted = 0;
  int effective_partitions = 1;
  std::vector<std::uint64_t> part_events;
  std::uint64_t wire_msgs = 0, batches = 0, lbts_rounds = 0;
  bool traced_sim = false;  // prof::Tracer attached (sequential cells)
  double sim_total_s = 0, sim_mpi_s = 0, sim_idle_s = 0;
  double paper = -1, value = 0;  // paper value where one exists
};

cluster::ClusterConfig app_config(const Cell& c) {
  cluster::ClusterConfig cfg;
  cfg.nodes = c.nodes;
  cfg.net = c.net;
  cfg.partitions = c.partitions;
  if (c.plan_seed != 0) {
    cfg.faults = fault::FaultPlan(c.plan_seed)
                     .drop(fault::kAnyNode, fault::kAnyNode, c.rates.drop_ppm * 1e-6)
                     .corrupt(fault::kAnyNode, fault::kAnyNode,
                              c.rates.corrupt_ppm * 1e-6);
  }
  return cfg;
}

// Parse "partition P: events=E sent=S received=R batches=B lbts_rounds=L".
void read_executor_notes(const audit::AuditReport& report, CellStats& st) {
  for (const auto& n : report.notes()) {
    if (n.component != "pdes::FabricExecutor") continue;
    unsigned long long p = 0, e = 0, s = 0, r = 0, b = 0, l = 0;
    if (std::sscanf(n.message.c_str(),
                    "partition %llu: events=%llu sent=%llu received=%llu "
                    "batches=%llu lbts_rounds=%llu",
                    &p, &e, &s, &r, &b, &l) == 6) {
      if (st.part_events.size() <= p) st.part_events.resize(p + 1);
      st.part_events[p] = e;
      st.wire_msgs += s;
      st.batches += b;
      st.lbts_rounds += l;
    }
  }
}

double paper_tab2(const Cell& c) {
  for (const auto& row : kTab2) {
    if (c.app != row.app) continue;
    for (int n = 0; n < 3; ++n) {
      for (int k = 0; k < 3; ++k) {
        if (kNets[n] == c.net && kTab2Nodes[k] == c.nodes && c.plan_seed == 0) {
          return row.paper[n][k];
        }
      }
    }
  }
  return -1;
}

int net_index(Net n) { return n == Net::kInfiniBand ? 0 : n == Net::kMyrinet ? 1 : 2; }

// Run one application cell: construct, run, audit, destroy. Host times
// cover the construction, the run and the teardown; the audit and the
// counter reads are outside them.
Outcome run_app_cell(const Cell& c, int cell_no, Spans& spans, CellStats& st) {
  Outcome o;
  const auto& spec = apps::find_app(c.app);
  const auto fp0 = sim::frame_pool::stats();
  SpanScope cell_span(spans, "cell", cell_no);
  prof::Tracer tracer;  // outlives the cluster that may point at it
  std::unique_ptr<cluster::Cluster> cl;
  const auto t0 = Clock::now();
  {
    SpanScope s(spans, "cluster.ctor", cell_no);
    cl = std::make_unique<cluster::Cluster>(app_config(c));
  }
  const auto t1 = Clock::now();
  st.effective_partitions = cl->effective_partitions();
  // The MPI tracer is not thread-safe: attach it to sequential cells only.
  st.traced_sim = spans.on() && st.effective_partitions == 1;
  if (st.traced_sim) cl->mpi().set_tracer(&tracer);
  if (!spec.ranks_ok(cl->ranks())) throw std::invalid_argument(c.id() + ": bad rank count");
  apps::AppResult r0;
  {
    SpanScope s(spans, "cluster.run", cell_no);
    cl->run([&](mpi::Comm& comm) -> sim::Task<void> {
      auto r = co_await spec.run_full(comm, apps::Mode::kSkeleton);
      if (comm.rank() == 0) r0 = r;
    });
  }
  const auto t2 = Clock::now();
  {
    SpanScope s(spans, "audit", cell_no);
    audit::AuditReport report = cl->make_audit_report();
    report.run();
    if (!report.clean()) {
      st.failed = true;
      st.why = "audit: " + report.summary();
    }
    read_executor_notes(report, st);
  }
  o.value = r0.app_seconds;
  o.now_ps = cl->now().count_ps();
  auto& fab = cl->fabric();
  o.posted = static_cast<std::int64_t>(fab.messages_posted());
  o.delivered = static_cast<std::int64_t>(fab.messages_delivered());
  for (int p = 0; p < st.effective_partitions; ++p) {
    st.events += cl->partition_engine(p).events_processed();
    st.events_cancelled += cl->partition_engine(p).events_cancelled();
  }
  const prof::RankStats tot = cl->recorder().totals();
  st.msgs = tot.ptp_calls;
  st.calls = tot.mpi_calls;
  st.collective_calls = tot.collective_calls;
  st.bytes = tot.total_bytes;
  st.posted = fab.messages_posted();
  st.delivered = fab.messages_delivered();
  st.errored = fab.messages_errored();
  st.aborted = fab.messages_aborted();
  st.express = fab.express_messages();
  st.express_demotions = fab.express_demotions();
  st.dropped = fab.packets_dropped();
  st.corrupted = fab.packets_corrupted();
  st.gbn_discarded = fab.packets_gbn_discarded();
  st.retransmitted = fab.packets_retransmitted();
  if (st.traced_sim) {
    for (const auto& b : tracer.breakdown(cl->ranks())) {
      st.sim_total_s += b.total_s;
      st.sim_mpi_s += b.mpi_s;
      st.sim_idle_s += b.idle_s();
    }
    cl->mpi().set_tracer(nullptr);
  }
  const auto t3 = Clock::now();
  {
    SpanScope s(spans, "cluster.dtor", cell_no);
    cl.reset();
  }
  const auto t4 = Clock::now();
  const auto fp1 = sim::frame_pool::stats();
  st.frames = fp1.allocated - fp0.allocated;
  st.frame_hits = fp1.pool_hits - fp0.pool_hits;
  st.ctor_s = seconds_between(t0, t1);
  st.run_s = seconds_between(t1, t2);
  st.dtor_s = seconds_between(t3, t4);
  st.host_s = st.ctor_s + st.run_s + st.dtor_s;
  return o;
}

std::vector<microbench::Point> call_kernel(Kernel k, Net net, std::uint64_t size) {
  const std::vector<std::uint64_t> s{size};
  switch (k) {
    case Kernel::kLatency: return microbench::latency(net, s);
    case Kernel::kBandwidth: return microbench::bandwidth(net, s);
    case Kernel::kHostOverhead: return microbench::host_overhead(net, s);
    case Kernel::kBidirLatency: return microbench::bidir_latency(net, s);
    case Kernel::kBidirBandwidth: return microbench::bidir_bandwidth(net, s);
    case Kernel::kOverlap: return microbench::overlap_potential(net, s);
    case Kernel::kReuseLatency:
      return microbench::buffer_reuse_latency(net, s, kReusePercent);
    case Kernel::kReuseBandwidth:
      return microbench::buffer_reuse_bandwidth(net, s, kReusePercent);
    case Kernel::kIntraLatency: return microbench::intranode_latency(net, s);
    case Kernel::kIntraBandwidth: return microbench::intranode_bandwidth(net, s);
    case Kernel::kAlltoall: return microbench::alltoall_latency(net, s);
    case Kernel::kAllreduce: return microbench::allreduce_latency(net, s);
  }
  throw std::logic_error("unknown kernel");
}

// The cluster each kernel builds internally (microbench.cpp): a node pair,
// one SMP node, or the default 8-node collective cluster.
cluster::ClusterConfig kernel_config(Kernel k, Net net) {
  cluster::ClusterConfig cfg;
  cfg.net = net;
  cfg.nodes = 2;
  if (k == Kernel::kIntraLatency || k == Kernel::kIntraBandwidth) {
    cfg.nodes = 1;
    cfg.ppn = 2;
  } else if (k == Kernel::kAlltoall || k == Kernel::kAllreduce) {
    cfg.nodes = microbench::Options{}.nodes;
  }
  return cfg;
}

Outcome run_micro_cell(const Cell& c, int cell_no, Spans& spans, CellStats& st) {
  const std::string span_name =
      std::string("microbench.") + kKernelNames[static_cast<int>(c.kernel)];
  const auto fp0 = sim::frame_pool::stats();
  std::vector<microbench::Point> pts;
  const auto t0 = Clock::now();
  {
    SpanScope cell_span(spans, "cell", cell_no);
    SpanScope s(spans, span_name, cell_no);
    pts = call_kernel(c.kernel, c.net, c.size);
  }
  const auto t1 = Clock::now();
  const auto fp1 = sim::frame_pool::stats();
  st.frames = fp1.allocated - fp0.allocated;
  st.frame_hits = fp1.pool_hits - fp0.pool_hits;
  st.host_s = seconds_between(t0, t1);
  if (pts.size() != 1) throw std::runtime_error(c.id() + ": expected one point");
  Outcome o;
  o.value = pts[0].value;
  return o;
}

double micro_paper(const Cell& c) {
  if (c.kernel == Kernel::kLatency && c.size == 4) return kFig1SmallLatency[net_index(c.net)];
  if (c.kernel == Kernel::kBandwidth && c.size == (1u << 20)) {
    return kFig2PeakBandwidth[net_index(c.net)];
  }
  return -1;
}

// Run and check one cell. Exceptions (DeadlockError, LivelockError,
// EventLimitError, AuditError, ...) fail the cell instead of the run.
CellStats run_cell(const Cell& c, int cell_no, Spans& spans,
                   const std::map<std::string, Outcome>* recorded,
                   Outcome* out = nullptr) {
  CellStats st;
  st.id = c.id();
  if (c.kind == Cell::Kind::kApp) st.app = c.app;
  if (c.kind == Cell::Kind::kMicro) st.kernel = static_cast<int>(c.kernel);
  Outcome o;
  try {
    o = c.kind == Cell::Kind::kApp ? run_app_cell(c, cell_no, spans, st)
                                   : run_micro_cell(c, cell_no, spans, st);
  } catch (const std::exception& e) {
    st.failed = true;
    st.why = std::string("threw: ") + e.what();
    return st;
  }
  if (out) *out = o;
  st.value = o.value;
  st.paper = c.kind == Cell::Kind::kApp ? paper_tab2(c) : micro_paper(c);
  if (c.partitions > 1 && st.effective_partitions != c.partitions) {
    st.failed = true;
    st.why = "demoted to " + std::to_string(st.effective_partitions) + " partition(s)";
  }
  if (st.express != 0 || st.express_demotions != 0) {
    st.failed = true;
    st.why = "express path ran although ClusterConfig::express is off";
  }
  if (recorded) {
    const auto it = recorded->find(st.id);
    if (it == recorded->end()) {
      st.failed = true;
      st.why = "no recorded result";
    } else if (!matches(o, it->second)) {
      st.failed = true;
      st.why = "result differs from the recorded one: got " +
               format_outcome(st.id, o) + ", recorded " +
               format_outcome(st.id, it->second);
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string basis;  // "num / den" for ratios, sample counts, n/a notes
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Peak resident set of this process image, from VmHWM. (getrusage's
// ru_maxrss survives execve, so it would report the launching Python
// process's footprint when that was larger.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// One pass: the cells, in order, with their stats.
struct Pass {
  std::vector<CellStats> cells;
  double wall_s = 0;
};

Pass run_pass(const std::vector<Cell>& cells, int& cell_no, Spans& spans,
              const std::map<std::string, Outcome>& recorded) {
  Pass p;
  for (const Cell& c : cells) {
    p.cells.push_back(run_cell(c, cell_no++, spans, &recorded));
    p.wall_s += p.cells.back().host_s;
  }
  return p;
}

// Host-speed scaling (see gauge.hpp). Gauge readings are taken between
// timed calls; a call made after reading k is scaled by
// Gauge::kReferenceS over the median of readings k-3 .. k+4, the four
// before it and the four after. A single reading can catch a momentary
// stall; the drift being corrected lasts seconds to minutes.
class SpeedScale {
 public:
  SpeedScale() { gauge_.measure(); }  // warm-up: first touch of its memory

  /// Takes a reading; returns the ticket of calls timed after it.
  std::size_t read() {
    readings_.push_back(gauge_.measure());
    return readings_.size() - 1;
  }

  /// Factor for a call timed after reading `ticket` and before the next.
  double factor(std::size_t ticket) const {
    const std::size_t lo = ticket < 3 ? 0 : ticket - 3;
    const std::size_t hi = std::min(ticket + 5, readings_.size());
    return mnsbench::Gauge::kReferenceS /
           median(std::vector<double>(readings_.begin() + static_cast<std::ptrdiff_t>(lo),
                                      readings_.begin() + static_cast<std::ptrdiff_t>(hi)));
  }

  /// Factor over all readings so far.
  double overall() const { return mnsbench::Gauge::kReferenceS / median(readings_); }

  std::size_t readings() const { return readings_.size(); }

 private:
  mnsbench::Gauge gauge_;
  std::vector<double> readings_;
};

// Set-up: construct and destroy, bare, the cluster of every cell of the
// pass, `reps` times; `rep_totals` gets each repetition's construction
// time, scaled to the gauge's reference speed. This is the workload's
// cluster set-up cost, and it prices construction and teardown for the
// microbench kernels, which build their clusters internally. Returns
// median (unscaled) ctor/dtor seconds per cell.
struct BarePrice { double ctor_s = 0; double dtor_s = 0; };

std::vector<BarePrice> set_up(const std::vector<Cell>& cells, int reps,
                              std::vector<double>& rep_totals, SpeedScale& scale) {
  std::vector<std::vector<double>> ctor(cells.size()), dtor(cells.size());
  std::vector<std::size_t> tickets;
  for (int r = 0; r < reps; ++r) {
    tickets.push_back(scale.read());
    double total = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const auto cfg = c.kind == Cell::Kind::kApp ? app_config(c) : kernel_config(c.kernel, c.net);
      const auto t0 = Clock::now();
      auto cl = std::make_unique<cluster::Cluster>(cfg);
      const auto t1 = Clock::now();
      cl.reset();
      const auto t2 = Clock::now();
      ctor[i].push_back(seconds_between(t0, t1));
      dtor[i].push_back(seconds_between(t1, t2));
      total += seconds_between(t0, t1);
    }
    rep_totals.push_back(total);
  }
  scale.read();
  for (std::size_t r = 0; r < rep_totals.size(); ++r) rep_totals[r] *= scale.factor(tickets[r]);
  std::vector<BarePrice> out;
  for (std::size_t i = 0; i < cells.size(); ++i) out.push_back({median(ctor[i]), median(dtor[i])});
  return out;
}

// Per-layer metrics over one traced pass; `prices` is aligned with its cells.
std::vector<Metric> layer_metrics(const Pass& traced,
                                  double untraced_wall_s,
                                  const std::vector<BarePrice>& prices,
                                  double k1_run_s, const Spans& spans) {
  CellStats t;  // sums
  double paper_err_sum = 0;
  int paper_n = 0;
  std::map<std::string, std::vector<double>> app_s, kernel_ms;
  std::vector<std::uint64_t> part_events;
  int failed = 0;
  double sim_total = 0, sim_mpi = 0, sim_idle = 0;
  for (std::size_t i = 0; i < traced.cells.size(); ++i) {
    const CellStats& c = traced.cells[i];
    failed += c.failed;
    double ctor = c.ctor_s, dtor = c.dtor_s, run = c.run_s;
    if (c.kernel >= 0) {
      // Kernels construct their own cluster: price it from the bare build.
      ctor = prices[i].ctor_s;
      dtor = prices[i].dtor_s;
      run = std::max(0.0, c.host_s - ctor - dtor);
      kernel_ms[kKernelNames[c.kernel]].push_back(c.host_s * 1e3);
    } else {
      app_s[c.app].push_back(c.host_s);
    }
    t.ctor_s += ctor;
    t.dtor_s += dtor;
    t.run_s += run;
    t.events += c.events;
    t.events_cancelled += c.events_cancelled;
    t.frames += c.frames;
    t.frame_hits += c.frame_hits;
    t.msgs += c.msgs;
    t.calls += c.calls;
    t.collective_calls += c.collective_calls;
    t.bytes += c.bytes;
    t.posted += c.posted;
    t.delivered += c.delivered;
    t.errored += c.errored;
    t.aborted += c.aborted;
    t.express += c.express;
    t.express_demotions += c.express_demotions;
    t.dropped += c.dropped;
    t.corrupted += c.corrupted;
    t.gbn_discarded += c.gbn_discarded;
    t.retransmitted += c.retransmitted;
    t.wire_msgs += c.wire_msgs;
    t.batches += c.batches;
    t.lbts_rounds += c.lbts_rounds;
    if (part_events.size() < c.part_events.size()) part_events.resize(c.part_events.size());
    for (std::size_t p = 0; p < c.part_events.size(); ++p) part_events[p] += c.part_events[p];
    if (c.traced_sim) {
      sim_total += c.sim_total_s;
      sim_mpi += c.sim_mpi_s;
      sim_idle += c.sim_idle_s;
    }
    if (c.paper > 0) {
      paper_err_sum += std::fabs(c.value - c.paper) / c.paper * 100.0;
      ++paper_n;
    }
  }
  const double n_cells = static_cast<double>(traced.cells.size());
  const bool micro = !traced.cells.empty() && traced.cells.front().kernel >= 0;
  const std::string na = micro ? "n/a: kernels build their clusters internally" : "";
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, std::string unit, std::string basis = "") {
    m.push_back({std::move(name), v, std::move(unit), std::move(basis)});
  };
  auto frac = [](double num, const char* nname, double den, const char* dname) {
    return std::string(nname) + " " + fmt(num) + " / " + dname + " " + fmt(den);
  };
  const double ev = static_cast<double>(t.events), msgs = static_cast<double>(t.msgs);
  const double posted = static_cast<double>(t.posted);
  add("cluster.ctor_ms", t.ctor_s * 1e3, "ms",
      micro ? "bare construction of each cell's config" : "");
  add("cluster.run_s", t.run_s, "s", micro ? "kernel call minus bare ctor+dtor" : "");
  add("cluster.dtor_ms", t.dtor_s * 1e3, "ms",
      micro ? "bare teardown of each cell's config" : "");
  add("sim.events", ev, "count", na);
  add("sim.events_cancelled", static_cast<double>(t.events_cancelled), "count", na);
  add("sim.ns_per_event", ratio(t.run_s * 1e9, ev), "ns",
      frac(t.run_s, "cluster.run_s", ev, "sim.events"));
  add("sim.events_per_msg", ratio(ev, msgs), "ratio", frac(ev, "sim.events", msgs, "mpi.msgs"));
  add("sim.frames", static_cast<double>(t.frames), "count",
      "frame_pool::stats() allocations on the calling thread");
  add("sim.frames_per_msg", ratio(static_cast<double>(t.frames), msgs), "ratio",
      frac(static_cast<double>(t.frames), "sim.frames", msgs, "mpi.msgs"));
  add("sim.frame_pool_hit_ratio",
      ratio(static_cast<double>(t.frame_hits), static_cast<double>(t.frames)), "ratio",
      frac(static_cast<double>(t.frame_hits), "pool_hits", static_cast<double>(t.frames),
           "sim.frames"));
  add("mpi.msgs", msgs, "count", na);
  add("mpi.calls", static_cast<double>(t.calls), "count", na);
  add("mpi.collective_calls", static_cast<double>(t.collective_calls), "count", na);
  add("mpi.bytes", static_cast<double>(t.bytes), "B", na);
  add("mpi.ns_per_msg", ratio(t.run_s * 1e9, msgs), "ns",
      frac(t.run_s, "cluster.run_s", msgs, "mpi.msgs"));
  add("mpi.sim_share", ratio(sim_mpi, sim_total), "ratio",
      frac(sim_mpi, "sim MPI s", sim_total, "sim rank s") + " (sequential cells)");
  add("mpi.sim_idle_share", ratio(sim_idle, sim_total), "ratio",
      frac(sim_idle, "sim idle s", sim_total, "sim rank s") + " (sequential cells)");
  add("model.msgs_posted", posted, "count", na);
  add("model.msgs_delivered", static_cast<double>(t.delivered), "count", na);
  add("model.ctrl_per_msg", ratio(posted, msgs), "ratio",
      frac(posted, "model.msgs_posted", msgs, "mpi.msgs"));
  add("model.ns_per_fabric_msg", ratio(t.run_s * 1e9, posted), "ns",
      frac(t.run_s, "cluster.run_s", posted, "model.msgs_posted"));
  add("model.express_msgs", static_cast<double>(t.express), "count");
  add("model.express_demotions", static_cast<double>(t.express_demotions), "count");
  add("model.msgs_errored", static_cast<double>(t.errored), "count");
  add("model.msgs_aborted", static_cast<double>(t.aborted), "count");
  const double losses = static_cast<double>(t.dropped + t.corrupted + t.gbn_discarded);
  add("fault.dropped", static_cast<double>(t.dropped), "count");
  add("fault.corrupted", static_cast<double>(t.corrupted), "count");
  add("fault.retransmitted", static_cast<double>(t.retransmitted), "count");
  add("fault.retx_per_loss", ratio(static_cast<double>(t.retransmitted), losses), "ratio",
      frac(static_cast<double>(t.retransmitted), "fault.retransmitted", losses,
           "dropped+corrupted+gbn_discarded"));
  part_events.resize(std::max<std::size_t>(part_events.size(), kS3dPartitions));
  double pmax = 0, psum = 0;
  for (std::size_t p = 0; p < part_events.size(); ++p) {
    const double e = static_cast<double>(part_events[p]);
    add("pdes.events.p" + std::to_string(p), e, "count");
    pmax = std::max(pmax, e);
    psum += e;
  }
  const double pmean = psum / static_cast<double>(part_events.size());
  add("pdes.imbalance", ratio(pmax, pmean), "ratio",
      frac(pmax, "max events", pmean, "mean events"));
  add("pdes.wire_msgs", static_cast<double>(t.wire_msgs), "count");
  add("pdes.batches", static_cast<double>(t.batches), "count");
  add("pdes.lbts_rounds", static_cast<double>(t.lbts_rounds), "count");
  add("pdes.events_per_round", ratio(psum, static_cast<double>(t.lbts_rounds)), "ratio",
      frac(psum, "partition events", static_cast<double>(t.lbts_rounds), "pdes.lbts_rounds"));
  add("pdes.speedup_vs_k1", ratio(k1_run_s, t.run_s), "ratio",
      frac(k1_run_s, "run_s at partitions=1", t.run_s, "cluster.run_s"));
  for (const auto& row : kTab2) {
    const auto it = app_s.find(row.app);
    const double v = it == app_s.end() ? 0.0 : median(it->second);
    add(std::string("apps.") + row.app + ".s", v, "s",
        it == app_s.end() ? "not in this workload"
                          : "median of " + std::to_string(it->second.size()) + " cells");
  }
  for (int k = 0; k < kKernels; ++k) {
    const auto it = kernel_ms.find(kKernelNames[k]);
    const double v = it == kernel_ms.end() ? 0.0 : median(it->second);
    add(std::string("microbench.") + kKernelNames[k] + ".ms", v, "ms",
        it == kernel_ms.end() ? "not in this workload"
                              : "median of " + std::to_string(it->second.size()) + " calls");
  }
  std::vector<double> cell_ms;
  for (const CellStats& c : traced.cells) cell_ms.push_back(c.host_s * 1e3);
  add("cell_p90_ms", percentile(cell_ms, 0.9), "ms",
      std::to_string(cell_ms.size()) + " cells of the traced pass");
  add("sim_msgs_per_s", ratio(msgs, t.run_s), "msg/s",
      frac(msgs, "mpi.msgs", t.run_s, "cluster.run_s"));
  add("paper_err_pct", paper_n ? paper_err_sum / paper_n : 0.0, "%",
      std::to_string(paper_n) + " cells with a published value");
  add("fail_frac", ratio(failed, n_cells), "ratio",
      frac(failed, "failed", n_cells, "attempted"));
  add("trace.overhead_s", traced.wall_s - untraced_wall_s, "s",
      "traced wall " + fmt(traced.wall_s) + " - untraced wall " + fmt(untraced_wall_s));
  // Self-time consistency: per cell, the self times of its spans sum to
  // the cell span's duration.
  const auto self = spans.self_times();
  std::map<int, double> cell_dur, cell_self;
  for (std::size_t i = 0; i < spans.all().size(); ++i) {
    const Span& s = spans.all()[i];
    if (s.cell < 0) continue;
    cell_self[s.cell] += self[i];
    if (s.name == "cell") cell_dur[s.cell] = s.end_s - s.start_s;
  }
  double resid = 0;
  for (const auto& [cell, dur] : cell_dur) resid = std::max(resid, std::fabs(cell_self[cell] - dur));
  add("trace.self_time_residual_ms", resid * 1e3, "ms",
      "max over cells of |sum of span self times - cell span|");
  return m;
}

void write_trace_json(const std::string& path, const Workload& w, std::uint64_t seed,
                      const Spans& spans, const Pass& traced) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const auto self = spans.self_times();
  out << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << seed
      << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans.all().size(); ++i) {
    const Span& s = spans.all()[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_s\": " << json_number(s.start_s) << ", \"end_s\": " << json_number(s.end_s)
        << ", \"self_s\": " << json_number(self[i]) << ", \"parent\": " << s.parent
        << ", \"cell\": " << s.cell << ", \"frames_at_start\": " << s.frames_at_start
        << ", \"frames_at_end\": " << s.frames_at_end << "}"
        << (i + 1 < spans.all().size() ? ",\n" : "\n");
  }
  out << " ],\n \"cells\": [\n";
  for (std::size_t i = 0; i < traced.cells.size(); ++i) {
    const CellStats& c = traced.cells[i];
    out << "  {\"id\": " << json_string(c.id) << ", \"failed\": " << (c.failed ? "true" : "false")
        << ", \"host_s\": " << json_number(c.host_s) << ", \"events\": " << c.events
        << ", \"frames\": " << c.frames << ", \"mpi_msgs\": " << c.msgs
        << ", \"fabric_posted\": " << c.posted << ", \"fabric_delivered\": " << c.delivered
        << ", \"dropped\": " << c.dropped << ", \"corrupted\": " << c.corrupted
        << ", \"retransmitted\": " << c.retransmitted << ", \"wire_msgs\": " << c.wire_msgs
        << ", \"lbts_rounds\": " << c.lbts_rounds << "}"
        << (i + 1 < traced.cells.size() ? ",\n" : "\n");
  }
  out << " ]\n}\n";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << fmt(m.value) << " " << m.unit;
    if (!m.basis.empty()) std::cout << "  (" << m.basis << ")";
    std::cout << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
              << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

void report_failures(const std::vector<CellStats>& cells) {
  for (const CellStats& c : cells) {
    if (c.failed) std::cerr << "FAILED " << c.id << ": " << c.why << "\n";
  }
}

// --record: run every menu cell `reps` times, each repetition in its own
// seeded order, and print the result table. Running a cell after
// different predecessors exposes results that depend on the process's
// earlier cells (host memory layout leaking into simulated time): every
// cell of an (app, net) group in which any result varied is checked to
// kVaryingTol instead of exactly. Fabric message counts must never vary.
// The first repetition runs in menu order, so the recorded values are
// those of a fresh process.
constexpr double kVaryingTol = 1e-2;

int record(const std::string& only, int reps) {
  Spans spans(Clock::now());
  std::cout << "# Simulated result of every menu cell, from: mnsbench --record\n"
            << "# id\tvalue\tnow_ps\tposted\tdelivered\ttol\n";
  for (const Workload& w : kWorkloads) {
    if (!only.empty() && only != w.name) continue;
    const std::vector<Cell> menu = w.menu();
    std::map<std::string, Outcome> first;
    std::map<std::string, double> dev;  // max relative deviation per cell
    for (int r = 0; r < reps; ++r) {
      std::vector<Cell> order = menu;
      SplitMix g = stream(static_cast<std::uint64_t>(r), 0, 0x7265);
      if (r > 0) g.shuffle(order);
      for (const Cell& c : order) {
        Outcome o;
        const CellStats st = run_cell(c, -1, spans, nullptr, &o);
        if (st.failed) {
          std::cerr << "FAILED " << st.id << ": " << st.why << "\n";
          return 1;
        }
        std::cerr << st.id << " host_s=" << fmt(st.host_s) << "\n";
        const auto [it, fresh] = first.emplace(st.id, o);
        if (fresh) continue;
        if (o.posted != it->second.posted || o.delivered != it->second.delivered) {
          std::cerr << "FAILED " << st.id << ": fabric message counts vary\n";
          return 1;
        }
        dev[st.id] = std::max(dev[st.id], max_rel_dev(o, it->second));
      }
    }
    std::map<std::string, double> group_dev;  // "app/net" -> max deviation
    for (const auto& [id, d] : dev) {
      if (d == 0) continue;
      double& g = group_dev[id.substr(0, id.rfind('/'))];
      g = std::max(g, d);
    }
    std::cout << "# " << w.name << "\n";
    for (const auto& [group, d] : group_dev) {
      std::cout << "# " << group << ": results vary by up to " << d << " (relative) over "
                << reps << " orders; checked to " << kVaryingTol << "\n";
    }
    for (const Cell& c : menu) {
      Outcome o = first.at(c.id());
      if (group_dev.count(c.id().substr(0, c.id().rfind('/')))) o.tol = kVaryingTol;
      std::cout << format_outcome(c.id(), o) << "\n";
    }
  }
  return 0;
}

constexpr int kSetupReps = 15;
constexpr std::size_t kMinPasses = 2;
constexpr double kGaugeEveryS = 0.05;
constexpr int kGaugeBurst = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string recorded = "perfbench/recorded.tsv";
  std::string trace_out;
  double process_init_s = 0;
};

int run_benchmark(const Args& a) {
  const auto origin = Clock::now();
  const Workload& w = find_workload(a.workload);
  const auto recorded = load_recorded(a.recorded);
  std::cout << "workload " << w.name << ": " << w.why << "\n";
  Spans spans(origin);
  int cell_no = 0;

  const std::vector<Cell> first = w.pass_cells(a.seed, 0);
  SpeedScale scale;
  std::vector<double> setup_reps;
  const std::vector<BarePrice> prices = set_up(first, kSetupReps, setup_reps, scale);

  if (a.trace) {
    // One untraced pass, then the same cells traced; their difference is
    // the tracing overhead.
    const Pass plain = run_pass(first, cell_no, spans, recorded);
    spans.enable();
    Pass traced;
    {
      SpanScope ws(spans, std::string("workload.") + w.name, -1);
      traced = run_pass(first, cell_no, spans, recorded);
    }
    // Partitioned cells rerun at partitions=1 for the speedup ratio; the
    // results are partition-invariant, so the recorded ones still apply.
    double k1_run_s = 0;
    std::vector<CellStats> all = plain.cells;
    for (const Cell& c : first) {
      if (c.partitions <= 1) continue;
      Cell k1 = c;
      k1.partitions = 1;
      Spans off(origin);
      all.push_back(run_cell(k1, -1, off, &recorded));
      k1_run_s += all.back().run_s;
    }
    const std::vector<Metric> metrics =
        layer_metrics(traced, plain.wall_s, prices, k1_run_s, spans);
    if (!a.trace_out.empty()) write_trace_json(a.trace_out, w, a.seed, spans, traced);
    all.insert(all.end(), traced.cells.begin(), traced.cells.end());
    std::size_t failed = 0;
    for (const auto& c : all) failed += c.failed;
    report_failures(all);
    print_result(failed == 0, all.size(), failed, metrics);
    return failed == 0 ? 0 : 1;
  }

  // Untraced: at least kMinPasses passes, then more while the next one is
  // expected to end within the budget. A gauge reading follows every
  // kGaugeEveryS of cell time (up to kGaugeBurst readings after a long
  // cell) and every pass. Each cell keeps only its host times, so the
  // process's peak memory is the simulator's plus the gauge's 4 MB.
  struct Sample {
    double host_s;
    std::size_t ticket;  // the gauge reading before the cell
  };
  std::map<std::string, std::vector<Sample>> samples;
  std::size_t attempted = 0, failed = 0, passes = 0;
  const auto t_start = Clock::now();
  double since_reading = 0;
  std::size_t ticket = scale.read();
  for (std::uint64_t p = 0;; ++p) {
    for (const Cell& c : p == 0 ? first : w.pass_cells(a.seed, p)) {
      const CellStats st = run_cell(c, cell_no++, spans, &recorded);
      samples[st.id].push_back({st.host_s, ticket});
      since_reading += st.host_s;
      if (since_reading >= kGaugeEveryS) {
        const int n = std::min(static_cast<int>(since_reading / kGaugeEveryS), kGaugeBurst);
        for (int i = 0; i < n; ++i) ticket = scale.read();
        since_reading = 0;
      }
      ++attempted;
      if (st.failed) {
        ++failed;
        report_failures({st});
      }
    }
    ++passes;
    if (since_reading > 0) {
      ticket = scale.read();
      since_reading = 0;
    }
    const double used = seconds_between(t_start, Clock::now());
    if (passes >= kMinPasses && used * static_cast<double>(passes + 1) / static_cast<double>(passes) > a.seconds) break;
  }
  // A cell's host time is the median of its scaled repetitions (the least
  // of them would pick the readings a stall slowed). The gauge runs on one
  // thread, and a partitioned cell's time does not follow it (its
  // partitions wait on the slowest CPU of the moment), so partitioned
  // workloads report the least of their cells' unscaled times instead:
  // stalls only ever add time.
  bool sequential = true;
  for (const Cell& c : first) sequential = sequential && c.partitions == 1;
  std::vector<double> cell_ms;
  double wall = 0, raw_wall = 0;
  for (const auto& [id, v] : samples) {
    std::vector<double> scaled, raw;
    for (const Sample& x : v) {
      scaled.push_back(x.host_s * scale.factor(x.ticket));
      raw.push_back(x.host_s);
    }
    const double t = sequential ? median(scaled) : *std::min_element(raw.begin(), raw.end());
    cell_ms.push_back(t * 1e3);
    wall += t;
    raw_wall += median(raw);
  }
  const std::string n_cells = std::to_string(cell_ms.size()) + " cells, " +
                              (sequential ? "median" : "least") + " of " +
                              std::to_string(passes) + " passes each";
  const std::string scaled_by = "scaled to the reference speed by " +
                                std::to_string(scale.readings()) + " gauge readings (x" +
                                fmt(scale.overall()) + " overall)";
  const double init_s = a.process_init_s * scale.overall();
  const std::vector<Metric> metrics{
      {"wall_s", wall, "s",
       "sum over " + n_cells + ", " +
           (sequential ? scaled_by + "; unscaled median " + fmt(raw_wall) + " s"
                       : std::string("unscaled (partitioned cells)"))},
      {"setup_s", init_s + median(setup_reps), "s",
       "process init " + fmt(init_s) + " s + median cluster construction over " +
           std::to_string(setup_reps.size()) + " set-ups, " + scaled_by},
      {"cell_p50_ms", median(cell_ms), "ms", n_cells},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"},
  };
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Entry timestamp for run.py's process-init probe (steady_clock is
  // CLOCK_MONOTONIC, the clock Python's time.monotonic_ns reads).
  const auto entry_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count();
  return mns::util::run_cli([&] {
    mns::util::Flags flags(argc, argv);
    if (flags.get_bool("probe", false)) {
      flags.reject_unknown();
      std::cout << entry_ns << "\n";
      return 0;
    }
    if (flags.has("record")) {
      const std::string only = flags.get("record", "");
      const auto reps = static_cast<int>(flags.get_uint("reps", 3));
      flags.reject_unknown();
      return record(only == "true" ? "" : only, std::max(reps, 1));
    }
    Args a;
    a.workload = flags.get("workload", "");
    a.seed = flags.get_uint("seed", 1);
    a.seconds = flags.get_double("seconds", 10);
    a.trace = flags.get_int("trace", 0) != 0;
    a.recorded = flags.get("recorded", a.recorded);
    a.trace_out = flags.get("trace-out", "");
    a.process_init_s = flags.get_double("process-init-s", 0);
    const bool list = flags.get_bool("list", false);
    const bool menu = flags.get_bool("menu", false);
    const std::uint64_t passes = flags.get_uint("passes", 1);
    flags.reject_unknown();
    const Workload& w = find_workload(a.workload);
    if (menu) {
      for (const Cell& c : w.menu()) std::cout << c.id() << "\n";
      return 0;
    }
    if (list) {
      for (std::uint64_t p = 0; p < passes; ++p) {
        for (const Cell& c : w.pass_cells(a.seed, p)) std::cout << c.id() << "\n";
      }
      return 0;
    }
    try {
      return run_benchmark(a);
    } catch (const std::runtime_error& e) {
      std::cerr << "mnsbench: " << e.what() << "\n";
      return 2;
    }
  });
}
