#include "cluster/cluster.hpp"

#include <stdexcept>
#include <utility>

#include "sim/frame_pool.hpp"

namespace mns::cluster {

const char* net_name(Net n) {
  switch (n) {
    case Net::kInfiniBand: return "IBA";
    case Net::kMyrinet: return "Myri";
    case Net::kQuadrics: return "QSN";
  }
  return "?";
}

Net parse_net(const std::string& s) {
  if (s == "ib" || s == "iba" || s == "infiniband") return Net::kInfiniBand;
  if (s == "myri" || s == "gm" || s == "myrinet") return Net::kMyrinet;
  if (s == "qsn" || s == "elan" || s == "quadrics") return Net::kQuadrics;
  throw std::invalid_argument("unknown network '" + s +
                              "' (want ib|myri|qsn)");
}

namespace {
model::BusConfig bus_for(Net net, Bus bus) {
  switch (bus) {
    case Bus::kPci66: return model::pci_66();
    case Bus::kPcix133: return model::pcix_133();
    case Bus::kDefault:
      // The testbed: InfiniHost + Myrinet cards in PCI-X slots, the Elan3
      // QM-400 in a 64-bit/66 MHz PCI slot.
      return net == Net::kQuadrics ? model::pci_66() : model::pcix_133();
  }
  return model::pcix_133();
}
}  // namespace

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  if (cfg_.nodes == 0) throw std::invalid_argument("cluster needs nodes");
  if (cfg_.ppn < 1 || cfg_.ppn > 2) {
    throw std::invalid_argument("ppn must be 1 or 2 (dual-CPU nodes)");
  }

  const model::BusConfig bus = bus_for(cfg_.net, cfg_.bus);

  // Resolve every hardware and channel config (tweaks applied) before
  // constructing anything: the partition layout must be decided first,
  // because each node's pipes, NIC state and MPI procs are built directly
  // on their owning partition's engine.
  ib::IbConfig ib_cfg{};
  gm::GmConfig gm_cfg{};
  elan::ElanConfig elan_cfg{};
  mpi::RdvChannelConfig rdv_cc{};
  mpi::ElanChannelConfig elan_cc{};
  model::NicConfig nic{};
  std::size_t fat_tree_radix = 0;
  bool hw_bcast = false;
  bool on_demand = false;
  switch (cfg_.net) {
    case Net::kInfiniBand: {
      ib_cfg = ib::default_ib_config(cfg_.nodes);
      if (cfg_.tweak_ib) cfg_.tweak_ib(ib_cfg);
      rdv_cc = mpi::default_ch_ib_config();
      if (cfg_.tweak_channel) cfg_.tweak_channel(rdv_cc);
      nic = ib_cfg.nic;
      fat_tree_radix = ib_cfg.switch_cfg.fat_tree_radix;
      hw_bcast = rdv_cc.hw_multicast;
      on_demand = ib_cfg.on_demand_connections;
      break;
    }
    case Net::kMyrinet: {
      gm_cfg = gm::default_gm_config(cfg_.nodes);
      if (cfg_.tweak_gm) cfg_.tweak_gm(gm_cfg);
      rdv_cc = mpi::default_ch_gm_config();
      if (cfg_.tweak_channel) cfg_.tweak_channel(rdv_cc);
      nic = gm_cfg.nic;
      fat_tree_radix = gm_cfg.switch_cfg.fat_tree_radix;
      hw_bcast = rdv_cc.hw_multicast;
      break;
    }
    case Net::kQuadrics: {
      elan_cfg = elan::default_elan_config(cfg_.nodes);
      if (cfg_.tweak_elan) cfg_.tweak_elan(elan_cfg);
      elan_cc = mpi::default_elan_channel_config();
      if (cfg_.tweak_elan_channel) cfg_.tweak_elan_channel(elan_cc);
      nic = elan_cfg.nic;
      fat_tree_radix = elan_cfg.switch_cfg.fat_tree_radix;
      hw_bcast = elan_cc.use_hw_bcast;
      break;
    }
  }

  // Derive and validate the conservative partition plan up front, so an
  // impossible --partitions request fails at construction, not mid-run.
  // The lookahead floor is the fabric's tx wire latency: the one delay
  // every cross-node interaction must pay before it becomes observable.
  plan_ = make_partition_plan(static_cast<int>(cfg_.nodes), cfg_.partitions,
                              nic.tx_wire_latency);

  // The executor enforces when >= now + lookahead on every wire message;
  // the tightest slack any protocol message carries is the minimum of the
  // ENTER (tx wire latency), LOSS (rx fixed latency) and LAND (bus DMA
  // setup) floors.
  sim::Time l_exec = std::min(
      {nic.tx_wire_latency, nic.rx_fixed, bus.per_dma_setup});
  if (cfg_.net == Net::kMyrinet) {
    // Staged fabric: a bulk message's ENTER is deferred to the kTx event
    // (the staging queue is shared with the receive side and only final
    // there), so its slack is the packet's staging serialization — as
    // small as one byte for a runt last packet.
    l_exec = std::min(l_exec, sim::transfer_time(1, gm_cfg.sram_rate));
  }

  // Demote to sequential execution when the configuration's hardware
  // shortcut touches remote-node state outside the wire protocol (see the
  // ClusterConfig::partitions comment), or when the executor would have
  // no conservative window at all.
  effective_partitions_ = cfg_.partitions;
  if (cfg_.partitions > 1 &&
      (hw_bcast || fat_tree_radix > 0 || on_demand ||
       !(l_exec > sim::Time::zero()))) {
    effective_partitions_ = 1;
  }
  const int parts_n = effective_partitions_;

  // Pre-size the event heaps from the topology: per-rank process starts,
  // in-flight window messages, NIC pipeline stages. Over-reserving a
  // little is free; re-growing mid-run costs a full heap copy.
  const std::size_t ranks = cfg_.nodes * static_cast<std::size_t>(cfg_.ppn);
  engines_.reserve(static_cast<std::size_t>(parts_n));
  for (int p = 0; p < parts_n; ++p) {
    engines_.push_back(std::make_unique<sim::Engine>());
    engines_.back()->reserve_events(64 + 48 * ranks);
  }

  // node -> owning engine (everything on engines_[0] when sequential).
  std::vector<sim::Engine*> node_eng(cfg_.nodes, engines_.front().get());
  if (parts_n > 1) {
    for (std::size_t n = 0; n < cfg_.nodes; ++n) {
      node_eng[n] = engines_[static_cast<std::size_t>(plan_.part_of[n])].get();
    }
  }

  std::vector<model::NodeHw*> node_ptrs;
  nodes_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    nodes_.push_back(std::make_unique<model::NodeHw>(
        *node_eng[i], bus, model::xeon_2003_memcpy()));
    node_ptrs.push_back(nodes_.back().get());
  }

  mpi_ = std::make_unique<mpi::Mpi>(
      *engines_.front(), mpi::Topology::block(cfg_.nodes, cfg_.ppn),
      parts_n > 1 ? node_eng : std::vector<sim::Engine*>{});

  model::FabricPartitioning fp;
  const model::FabricPartitioning* fpp = nullptr;
  if (parts_n > 1) {
    fp.part_of = plan_.part_of;
    for (auto& e : engines_) fp.engines.push_back(e.get());
    fpp = &fp;
  }

  switch (cfg_.net) {
    case Net::kInfiniBand: {
      ib_ = std::make_unique<ib::IbFabric>(*engines_.front(), node_ptrs,
                                           ib_cfg, fpp);
      mpi_->set_device(mpi::make_ch_ib(*mpi_, *ib_, rdv_cc));
      break;
    }
    case Net::kMyrinet: {
      gm_ = std::make_unique<gm::GmFabric>(*engines_.front(), node_ptrs,
                                           gm_cfg, fpp);
      mpi_->set_device(mpi::make_ch_gm(*mpi_, *gm_, rdv_cc));
      break;
    }
    case Net::kQuadrics: {
      elan_ = std::make_unique<elan::ElanFabric>(*engines_.front(),
                                                 node_ptrs, elan_cfg, fpp);
      mpi_->set_device(mpi::make_ch_elan(*mpi_, *elan_, elan_cc));
      break;
    }
  }

  if (!cfg_.faults.empty()) fabric().set_fault_plan(cfg_.faults);
  // Fail-stop error notifications pay the executor's conservative slack
  // as a uniform cross-node wire delay — in sequential runs too — so a
  // degraded run's timing is bit-identical across partition counts (see
  // NetFabric::run_on_node). A no-op without a fail-stop clause.
  fabric().set_error_notify_delay(l_exec);
  // Fail-stop clauses switch the MPI collectives to their deterministic
  // error-agreement epilogue (see Comm::finish_collective); transient-only
  // plans leave the collectives byte-for-byte unchanged.
  mpi_->set_fail_stop_armed(cfg_.faults.has_fail_stop());

  if (cfg_.max_sim_time > sim::Time::zero()) {
    for (auto& e : engines_) e->set_time_limit(cfg_.max_sim_time);
  }

  if (parts_n > 1) {
    // The executor's conservative window runs on the tightest protocol
    // slack, not the plan's tx-wire-latency bound (the plan documents the
    // physical floor; the executor must also admit LOSS/LAND messages).
    sim::pdes::Topology topo = plan_.to_topology();
    topo.lookahead = l_exec;
    std::vector<sim::Engine*> raw;
    for (auto& e : engines_) raw.push_back(e.get());
    exec_ = std::make_unique<sim::pdes::FabricExecutor>(std::move(topo),
                                                        std::move(raw));
    fabric().bind_executor(*exec_);
  }

  comms_.reserve(mpi_->size());
  for (std::size_t r = 0; r < mpi_->size(); ++r) {
    comms_.push_back(
        std::make_unique<mpi::Comm>(*mpi_, static_cast<mpi::Rank>(r)));
  }

  // Construction spawned the persistent daemon loops (NIC senders,
  // progress engines); everything above this level must drain by the end
  // of a run. Re-snapshotted at each run() so the audit stays exact even
  // when several clusters are alive on this thread (the pool is
  // thread-local and run() is synchronous, so nothing else can allocate
  // between the snapshot and the check). Worker-thread frames (rank
  // programs and transients of partitions > 0) allocate and free on their
  // own thread's pool within a round, so the main-thread check is exact
  // in partitioned runs too.
  frame_pool_baseline_ = sim::frame_pool::stats().outstanding();
}

model::NetFabric& Cluster::fabric() {
  if (ib_) return *ib_;
  if (gm_) return *gm_;
  return *elan_;
}

Cluster::~Cluster() {
  // Destroy the executor first: its worker threads must be joined before
  // the engines they borrow go away.
  exec_.reset();
  // Suspended rank coroutines (e.g. after a DeadlockError run) hold
  // MpiScope/Request locals referencing mpi_ and the fabrics. Destroy
  // their frames while those members are still alive; member destruction
  // order alone would tear down mpi_ first.
  for (auto& e : engines_) e->drop_processes();
}

sim::Time Cluster::run(RankMain rank_main) {
  const sim::Time start = now();
  frame_pool_baseline_ = sim::frame_pool::stats().outstanding();
  try {
    run_ranks(std::move(rank_main), start);
  } catch (const sim::LivelockError& e) {
    // Augment the engine's report with the layers only the cluster can
    // see: the fabric's per-flow stages and (when partitioned) each
    // partition's executor counters and local horizon.
    std::string report = e.report();
    report += "\n" + fabric().progress_report();
    for (std::size_t p = 0; p < engines_.size(); ++p) {
      report += "partition " + std::to_string(p) + ": now=" +
                engines_[p]->now().str() + " pending=" +
                std::to_string(engines_[p]->pending_events()) + "\n";
    }
    if (exec_) {
      const auto& st = exec_->part_stats();
      for (std::size_t p = 0; p < st.size(); ++p) {
        report += "executor part " + std::to_string(p) + ": events=" +
                  std::to_string(st[p].events) + " sent=" +
                  std::to_string(st[p].sent) + " received=" +
                  std::to_string(st[p].received) + " lbts_rounds=" +
                  std::to_string(st[p].lbts_rounds) + "\n";
      }
    }
    throw sim::LivelockError(std::move(report));
  }
  if constexpr (audit::kEnabled) {
    make_audit_report().require_clean();
  }
  return now() - start;
}

void Cluster::run_ranks(RankMain rank_main, sim::Time start) {
  if (!exec_) {
    sim::Engine& eng = *engines_.front();
    for (auto& comm : comms_) {
      // Wrap so each rank's coroutine sees its own Comm.
      eng.spawn([](RankMain fn, mpi::Comm& c) -> sim::Task<void> {
        co_await fn(c);
      }(rank_main, *comm));
    }
    eng.run();
  } else {
    // Partitions may sit at different local times after a previous run
    // (each stops at its own last event); every rank starts this run at
    // the global clock so the spawn instant is partition-invariant. Ranks
    // spawn in ascending order within a partition, matching the
    // sequential engine's spawn order on each node.
    const sim::Time t0 = start;
    exec_->run_round([this, t0, &rank_main](int p) {
      sim::Engine& eng = *engines_[static_cast<std::size_t>(p)];
      eng.at(t0, [this, p, &eng, &rank_main] {
        for (auto& comm : comms_) {
          const int node = mpi_->node_of(comm->rank());
          if (plan_.part_of[static_cast<std::size_t>(node)] != p) continue;
          eng.spawn([](RankMain fn, mpi::Comm& c) -> sim::Task<void> {
            co_await fn(c);
          }(rank_main, *comm));
        }
      });
    });
  }
}

audit::AuditReport Cluster::make_audit_report() {
  audit::AuditReport report;
  for (auto& e : engines_) e->register_audits(report);
  report.add_check("sim::frame_pool", [this](audit::AuditReport::Scope& s) {
    // Empty-at-exit modulo the persistent daemons: every transient frame
    // the run spawned (compute/busy tasks, per-message channel tasks)
    // must have been returned to the pool.
    s.require_eq(sim::frame_pool::stats().outstanding(),
                 frame_pool_baseline_,
                 "coroutine frame pool not back to its pre-run level "
                 "(leaked frame)");
  });
  if (ib_) ib_->register_audits(report);
  if (gm_) gm_->register_audits(report);
  if (elan_) elan_->register_audits(report);
  mpi_->register_audits(report);
  if (exec_) {
    report.add_check(
        "pdes::FabricExecutor", [this](audit::AuditReport::Scope& s) {
          const auto& st = exec_->part_stats();
          std::uint64_t sent = 0;
          std::uint64_t received = 0;
          for (std::size_t p = 0; p < st.size(); ++p) {
            sent += st[p].sent;
            received += st[p].received;
            s.note("partition " + std::to_string(p) + ": events=" +
                   std::to_string(st[p].events) + " sent=" +
                   std::to_string(st[p].sent) + " received=" +
                   std::to_string(st[p].received) + " batches=" +
                   std::to_string(st[p].batches) + " lbts_rounds=" +
                   std::to_string(st[p].lbts_rounds));
          }
          s.require_eq(sent, received,
                       "cross-partition message(s) lost in flight");
        });
  }
  return report;
}

}  // namespace mns::cluster
