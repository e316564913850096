#include <gtest/gtest.h>

#include "skv/cluster.hpp"
#include "workload/runner.hpp"
#include "workload/session.hpp"

namespace skv::workload {
namespace {

TEST(Generator, DeterministicPerSeed) {
    WorkloadSpec spec;
    Generator a(spec, sim::Rng(4));
    Generator b(spec, sim::Rng(4));
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Generator, PureSetAndPureGet) {
    WorkloadSpec set_spec;
    set_spec.set_ratio = 1.0;
    Generator gs(set_spec, sim::Rng(1));
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(gs.next()[0], "SET");
    }
    WorkloadSpec get_spec;
    get_spec.set_ratio = 0.0;
    Generator gg(get_spec, sim::Rng(1));
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(gg.next()[0], "GET");
    }
}

TEST(Generator, MixedRatioRoughlyHolds) {
    WorkloadSpec spec;
    spec.set_ratio = 0.3;
    Generator g(spec, sim::Rng(2));
    for (int i = 0; i < 20'000; ++i) g.next();
    const double ratio = static_cast<double>(g.sets_generated()) /
                         static_cast<double>(g.sets_generated() + g.gets_generated());
    EXPECT_NEAR(ratio, 0.3, 0.02);
}

TEST(Generator, KeysWithinKeyspace) {
    WorkloadSpec spec;
    spec.key_count = 10;
    spec.key_prefix = "p:";
    Generator g(spec, sim::Rng(3));
    for (int i = 0; i < 1000; ++i) {
        const auto cmd = g.next();
        ASSERT_EQ(cmd[1].rfind("p:", 0), 0u);
        const int idx = std::stoi(cmd[1].substr(2));
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, 10);
    }
}

TEST(Generator, ValueSizeExact) {
    WorkloadSpec spec;
    spec.value_bytes = 137;
    Generator g(spec, sim::Rng(4));
    const auto cmd = g.next();
    ASSERT_EQ(cmd[0], "SET");
    EXPECT_EQ(cmd[2].size(), 137u);
}

TEST(Generator, ZipfianConcentratesOnHotKeys) {
    WorkloadSpec spec;
    spec.key_dist = KeyDist::kZipfian;
    spec.key_count = 1000;
    Generator g(spec, sim::Rng(5));
    std::map<std::string, int> counts;
    for (int i = 0; i < 20'000; ++i) ++counts[g.next()[1]];
    // The hottest key should dominate the median key by a wide margin.
    int max_count = 0;
    for (const auto& [k, v] : counts) max_count = std::max(max_count, v);
    EXPECT_GT(max_count, 1000);
}

TEST(Runner, SmokeRunProducesSaneNumbers) {
    offload::ClusterConfig cfg;
    cfg.n_slaves = 0;
    offload::Cluster c(cfg);
    c.start();
    RunOptions opts;
    opts.clients = 4;
    opts.warmup = sim::milliseconds(50);
    opts.measure = sim::milliseconds(300);
    const auto r = run_workload(c, opts);
    EXPECT_GT(r.throughput_kops, 50.0);
    EXPECT_GT(r.ops, 10'000u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.mean_us, 1.0);
    EXPECT_GE(r.p99_us, r.p50_us);
    EXPECT_GE(r.max_us, r.p99_us);
    EXPECT_GT(r.master_cpu_util, 0.1);
    EXPECT_LE(r.master_cpu_util, 1.01);
}

TEST(Runner, TimelineBinsSumToOps) {
    offload::ClusterConfig cfg;
    cfg.n_slaves = 0;
    offload::Cluster c(cfg);
    c.start();
    RunOptions opts;
    opts.clients = 2;
    opts.warmup = sim::milliseconds(20);
    opts.measure = sim::milliseconds(200);
    opts.timeline_bin = sim::milliseconds(50);
    const auto r = run_workload(c, opts);
    ASSERT_FALSE(r.timeline_kops.empty());
    double total = 0;
    for (const double kops : r.timeline_kops) total += kops * 0.05 * 1e3;
    EXPECT_NEAR(total, static_cast<double>(r.ops),
                static_cast<double>(r.ops) * 0.02);
}

TEST(Runner, PreloadPopulatesAllNodes) {
    offload::ClusterConfig cfg;
    cfg.n_slaves = 2;
    cfg.offload = true;
    offload::Cluster c(cfg);
    c.start();
    RunOptions opts;
    opts.clients = 1;
    opts.spec.set_ratio = 0.0;
    opts.spec.key_count = 100;
    opts.preload = true;
    opts.warmup = sim::milliseconds(10);
    opts.measure = sim::milliseconds(50);
    const auto r = run_workload(c, opts);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(c.master().db().size(), 100u);
    EXPECT_EQ(c.slave(0).db().size(), 100u);
    EXPECT_EQ(c.slave(1).db().size(), 100u);
}

TEST(Runner, FaultInjectionCrashesAndRecovers) {
    offload::ClusterConfig cfg;
    cfg.n_slaves = 2;
    cfg.offload = true;
    offload::Cluster c(cfg);
    c.start();
    RunOptions opts;
    opts.clients = 2;
    opts.warmup = sim::milliseconds(20);
    opts.measure = sim::seconds(6);
    opts.faults.push_back({sim::seconds(1), 0, false});
    opts.faults.push_back({sim::seconds(3), 0, true});
    const auto r = run_workload(c, opts);
    EXPECT_GT(r.ops, 0u);
    EXPECT_FALSE(c.slave(0).crashed());
    EXPECT_EQ(c.slave(0).stats().counter("crashes"), 1u);
    EXPECT_EQ(c.slave(0).stats().counter("recoveries"), 1u);
}

// call()'s other outcome, which no scripted test reaches: the server
// crashed after the connection came up, so no reply lands and call() gives
// up once its bound has passed, not before and not after.
TEST(Session, CallToCrashedServerReturnsNoReplyWithinBound) {
    offload::Cluster c(offload::ClusterConfig{.n_slaves = 1, .offload = true});
    c.start();
    Session s(c, "cli");
    ASSERT_TRUE(s.connected());
    EXPECT_TRUE(s.call({"SET", "k", "v"}).value().is_ok());
    c.master().crash();
    const sim::SimTime t0 = c.sim().now();
    EXPECT_FALSE(s.call({"GET", "k"}, sim::milliseconds(300)).has_value());
    EXPECT_EQ(c.sim().now() - t0, sim::milliseconds(300));
    EXPECT_EQ(s.replies().size(), 1u);
}

TEST(RunResult, SummaryFormats) {
    RunResult r;
    r.throughput_kops = 123.4;
    r.ops = 10;
    EXPECT_NE(r.summary().find("123.4"), std::string::npos);
}

} // namespace
} // namespace skv::workload
