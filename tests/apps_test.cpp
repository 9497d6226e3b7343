// Application kernels: real-mode numerics verify; skeleton mode runs the
// class-B message schedule; both modes and all networks complete.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"

namespace {

using namespace mns;
using apps::AppResult;
using apps::Mode;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using sim::Task;

AppResult run_app_on(const apps::AppSpec& spec, Net net, std::size_t nodes,
                     int ppn, Mode mode, bool test_size = true) {
  ClusterConfig cfg{.nodes = nodes, .ppn = ppn, .net = net};
  Cluster c(cfg);
  std::vector<AppResult> results(static_cast<std::size_t>(c.ranks()));
  c.run([&](Comm& comm) -> Task<> {
    auto& fn = test_size ? spec.run_test : spec.run_full;
    results[static_cast<std::size_t>(comm.rank())] =
        co_await fn(comm, mode);
  });
  return results[0];
}

class RealApps : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(All, RealApps,
                         ::testing::Values("is", "cg", "mg", "ft", "lu",
                                           "sp", "bt", "s3d50"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(RealApps, VerifiesOn4RanksIB) {
  const auto& spec = apps::find_app(GetParam());
  ASSERT_TRUE(spec.ranks_ok(4));
  const AppResult r = run_app_on(spec, Net::kInfiniBand, 4, 1, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
  EXPECT_GT(r.app_seconds, 0.0);
}

TEST_P(RealApps, VerifiesOnMyrinet) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult r = run_app_on(spec, Net::kMyrinet, 4, 1, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(RealApps, VerifiesOnQuadrics) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult r = run_app_on(spec, Net::kQuadrics, 4, 1, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(RealApps, VerifiesInSmpMode) {
  // 8 ranks as 2-per-node on 4 nodes: exercises the intra-node paths.
  const auto& spec = apps::find_app(GetParam());
  if (!spec.ranks_ok(8)) GTEST_SKIP() << "needs different rank count";
  const AppResult r = run_app_on(spec, Net::kInfiniBand, 4, 2, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(RealApps, NetworkInvariantNumerics) {
  // The numeric answer must not depend on the interconnect.
  const auto& spec = apps::find_app(GetParam());
  const AppResult a = run_app_on(spec, Net::kInfiniBand, 4, 1, Mode::kReal);
  const AppResult b = run_app_on(spec, Net::kQuadrics, 4, 1, Mode::kReal);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum) << GetParam();
}

TEST_P(RealApps, SkeletonModeCompletes) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult r =
      run_app_on(spec, Net::kInfiniBand, 4, 1, Mode::kSkeleton);
  EXPECT_GT(r.app_seconds, 0.0);
}

TEST_P(RealApps, SkeletonDeterministic) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult a =
      run_app_on(spec, Net::kMyrinet, 4, 1, Mode::kSkeleton);
  const AppResult b =
      run_app_on(spec, Net::kMyrinet, 4, 1, Mode::kSkeleton);
  EXPECT_DOUBLE_EQ(a.app_seconds, b.app_seconds) << GetParam();
}

TEST(AppsMisc, EightRankRealRuns) {
  for (const char* name : {"is", "cg", "mg", "ft", "lu", "s3d50"}) {
    const auto& spec = apps::find_app(name);
    ASSERT_TRUE(spec.ranks_ok(8)) << name;
    const AppResult r =
        run_app_on(spec, Net::kInfiniBand, 8, 1, Mode::kReal);
    EXPECT_TRUE(r.verified) << name;
  }
}

TEST(AppsMisc, RankConstraints) {
  EXPECT_TRUE(apps::find_app("sp").ranks_ok(4));
  EXPECT_FALSE(apps::find_app("sp").ranks_ok(8));
  EXPECT_TRUE(apps::find_app("cg").ranks_ok(8));
  EXPECT_FALSE(apps::find_app("cg").ranks_ok(6));
  EXPECT_TRUE(apps::find_app("is").ranks_ok(7));
  EXPECT_THROW(apps::find_app("nope"), std::invalid_argument);
}

TEST(AppsMisc, BandwidthBoundAppFavorsInfiniBand) {
  // Class-B IS moves multi-MB alltoallv payloads: InfiniBand's 3.5x
  // bandwidth advantage must show up in simulated execution time
  // (paper Fig. 14: IS is IB's biggest win).
  const auto& spec = apps::find_app("is");
  const AppResult ib = run_app_on(spec, Net::kInfiniBand, 8, 1,
                                  Mode::kSkeleton, /*test_size=*/false);
  const AppResult my = run_app_on(spec, Net::kMyrinet, 8, 1,
                                  Mode::kSkeleton, /*test_size=*/false);
  EXPECT_GT(my.app_seconds, ib.app_seconds * 1.15);
}

// The simulated event stream of twelve class-B skeleton cells, pinned
// exactly: the number of events run and the final clock. The benchmark's
// recorded cells check results, not the stream, so dropping or adding a
// zero-effect event (such as a delivery ack's final slot end) shows only
// here. Between them the cells reach eager and shared-memory delivery,
// the rendezvous CTS, data and FIN steps, Elan NIC delivery, and the GM
// and Elan delivery acks.
TEST(AppsMisc, SkeletonEventStreamIsPinned) {
  struct Cell {
    const char* app;
    Net net;
    std::size_t nodes;
    int ppn;
    std::uint64_t events;
    std::int64_t now_ps;
  };
  const Cell cells[] = {
      {"is", Net::kInfiniBand, 4, 1, 60'833, 3'370'136'089'734},
      {"is", Net::kMyrinet, 4, 1, 82'068, 4'418'011'008'980},
      {"is", Net::kQuadrics, 4, 1, 61'342, 4'171'981'944'164},
      {"ft", Net::kInfiniBand, 4, 1, 101'531, 74'989'361'882'555},
      {"ft", Net::kMyrinet, 4, 1, 137'544, 82'425'156'718'410},
      {"ft", Net::kQuadrics, 4, 1, 97'090, 80'661'105'769'096},
      {"is", Net::kInfiniBand, 2, 2, 54'854, 3'964'539'379'463},
      {"is", Net::kMyrinet, 2, 2, 54'518, 4'956'988'368'820},
      {"is", Net::kQuadrics, 2, 2, 56'300, 5'557'659'550'790},
      {"ft", Net::kInfiniBand, 2, 2, 95'843, 79'693'666'036'672},
      {"ft", Net::kMyrinet, 2, 2, 92'336, 86'347'684'982'084},
      {"ft", Net::kQuadrics, 2, 2, 91'392, 90'752'603'658'696},
  };
  for (const Cell& cell : cells) {
    ClusterConfig cfg{.nodes = cell.nodes, .ppn = cell.ppn, .net = cell.net};
    Cluster c(cfg);
    const auto& spec = apps::find_app(cell.app);
    c.run([&spec](Comm& comm) -> Task<> {
      (void)co_await spec.run_full(comm, Mode::kSkeleton);
    });
    const std::string id = std::string(cell.app) + " net " +
                           std::to_string(static_cast<int>(cell.net)) + " " +
                           std::to_string(cell.nodes) + "x" +
                           std::to_string(cell.ppn);
    EXPECT_EQ(c.engine().events_processed(), cell.events) << id;
    EXPECT_EQ(c.now().count_ps(), cell.now_ps) << id;
  }
}

TEST(AppsMisc, CgQuadricsSkeletonIgnoresEarlierCells) {
  // A skeleton cell's simulated time must be a function of the cell
  // alone, not of host memory layout: the same class-B cg cell over
  // Quadrics gives a bit-identical result in a forked child where no
  // cell has run yet and in this process after a different cell has
  // recycled the coroutine-frame pool (Elan's NIC MMU keys its timing
  // on buffer pages, so a host address leaking into it would show).
  const auto& cg = apps::find_app("cg");
  auto run_cg = [&] {
    return run_app_on(cg, Net::kQuadrics, 8, 1, Mode::kSkeleton,
                      /*test_size=*/false)
        .app_seconds;
  };
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    const double fresh = run_cg();
    const bool sent = write(fds[1], &fresh, sizeof fresh) == sizeof fresh;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  (void)run_app_on(apps::find_app("ft"), Net::kQuadrics, 8, 1,
                   Mode::kSkeleton, /*test_size=*/false);
  const double after_other = run_cg();
  double fresh = 0;
  const ssize_t got = read(fds[0], &fresh, sizeof fresh);
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof fresh));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh),
            std::bit_cast<std::uint64_t>(after_other))
      << "fresh " << fresh << " s vs after another cell " << after_other
      << " s";
}

}  // namespace
