#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaos_support.hpp"
#include "skv/cluster.hpp"
#include "workload/chaos.hpp"
#include "workload/runner.hpp"

// Behaviour pins: each scenario's event count, trace digest, client history
// and every node's counters, compared against constants recorded once from
// the code as it stood when they were added. The determinism suites only
// compare a run with itself; these compare a commit with its ancestors, so a
// refactor that must not move behaviour is checked by tier-1, not only by
// perfbench's seed-42 fingerprints.
//
// The recovery storms assert nothing about correctness: they record today's
// behaviour, known recovery defects included (ROADMAP item 1). A change that
// fixes those defects re-records the affected constants as a declared change
// to this oracle; every other change leaves them alone.

namespace skv::offload {
namespace {

using chaos::fnv1a;
using server::ReplicationMode;
using workload::ChaosStep;
using enum workload::ChaosStep::Action;

struct Pin {
    std::uint64_t events;
    std::uint64_t digest;
    std::uint64_t history;
    std::uint64_t stats;
};

/// FNV of every server's and Nic-KV's counter dump, master first.
std::uint64_t stats_hash(Cluster& c) {
    std::string all = c.master().stats().format();
    for (int i = 0; i < c.slave_count(); ++i) {
        all += c.slave(i).stats().format();
    }
    if (c.nic_kv() != nullptr) all += c.nic_kv()->stats().format();
    return fnv1a(all);
}

void expect_pin(Cluster& c, std::string_view history, const Pin& want) {
    const Pin got{c.sim().events_executed(), c.sim().trace_digest(),
                  fnv1a(history), stats_hash(c)};
    char actual[160];
    std::snprintf(actual, sizeof(actual),
                  "actual: {%" PRIu64 "u, 0x%016" PRIx64 "u, 0x%016" PRIx64
                  "u, 0x%016" PRIx64 "u}",
                  got.events, got.digest, got.history, got.stats);
    EXPECT_EQ(got.events, want.events) << actual;
    EXPECT_EQ(got.digest, want.digest) << actual;
    EXPECT_EQ(got.history, want.history) << actual;
    EXPECT_EQ(got.stats, want.stats) << actual;
}

// --- closed-loop runs (DeterminismTest's workload at seed 1234) -------------

void pin_closed_loop(System sys, const Pin& want) {
    ClusterConfig cfg = config_of(sys);
    cfg.seed = 1234;
    cfg.n_slaves = 3;
    Cluster c(cfg);
    c.start();
    workload::RunOptions opts;
    opts.clients = 4;
    opts.warmup = sim::milliseconds(50);
    opts.measure = sim::milliseconds(400);
    const workload::RunResult r = workload::run_workload(c, opts);
    char history[256];
    std::snprintf(history, sizeof(history),
                  "%" PRIu64 " %" PRIu64 " %a %a %a %a %a %a %a %a", r.ops,
                  r.errors, r.throughput_kops, r.mean_us, r.p50_us, r.p95_us,
                  r.p99_us, r.p999_us, r.max_us, r.master_cpu_util);
    expect_pin(c, history, want);
}

TEST(BehaviourPin, ClosedLoopTcpRedis) {
    pin_closed_loop(System::kTcpRedis,
                    {567735u, 0xbb9778e20a743acfu, 0xa4fca2769bb84d06u, 0x147a5f178be3d774u});
}
TEST(BehaviourPin, ClosedLoopRdmaRedis) {
    pin_closed_loop(System::kRdmaRedis,
                    {2412888u, 0x262543bc6db219a8u, 0xa665072d43899bd4u, 0x666684315981dd76u});
}
TEST(BehaviourPin, ClosedLoopSkv) {
    pin_closed_loop(System::kSkv,
                    {3066363u, 0xb3d690aec3d33624u, 0xc4397b0678cc6adfu, 0xc4ad212e102dc092u});
}

// --- commit-gated SKV runs under retrying clients ---------------------------

/// Three retrying clients × 60 ops through `storm`, then 6 s more. No
/// drain: the pin records the state right then.
void pin_gated(ReplicationMode m, std::vector<ChaosStep> storm,
               std::uint64_t seed, const Pin& want,
               sim::Duration persist_interval = {}) {
    workload::ChaosScenario s{
        .cluster = workload::crash_cluster_config(seed, m),
        .fleet = {.ops_each = 60},
        .schedule = std::move(storm),
        .drain_cap = {}};
    s.cluster.server_tmpl.persist_interval = persist_interval;
    s.schedule.push_back({sim::seconds(6)});
    const auto r = s.run();
    expect_pin(*r.cluster, r.history->to_json(), want);
}

// What each storm does, starting 300 ms into the workload.
constexpr sim::Duration kAt = sim::milliseconds(300);
/// No fault.
const std::vector<ChaosStep> kNone = {{kAt}};
/// Master down 800 ms (failover happens), then a warm restart.
const std::vector<ChaosStep> kMasterWarm = {
    {kAt, kCrash, -1}, {sim::milliseconds(800), kWarmRestart, -1}};
/// Master down 300 ms (no failover), then a cold restart from the snapshot
/// persisted every 200 ms.
const std::vector<ChaosStep> kMasterCold = {
    {kAt, kCrash, -1}, {sim::milliseconds(300), kColdRestart, -1}};
constexpr sim::Duration kPersist = sim::milliseconds(200);
/// Nic-KV down 350 ms, then restarted empty.
const std::vector<ChaosStep> kNic = {
    {kAt, kCrashNic}, {sim::milliseconds(350), kRestartNic}};

TEST(BehaviourPin, GatedFanout) {
    pin_gated(ReplicationMode::kFanout, kNone, 70101,
              {10234u, 0x945a54408a98a249u, 0x60143294abe4aa52u, 0xc98de867f004c331u});
}
TEST(BehaviourPin, GatedChain) {
    pin_gated(ReplicationMode::kChain, kNone, 70102,
              {10625u, 0xdf8f287b253bd671u, 0xc264a45823fc6c6bu, 0x774d4edef4fdfce0u});
}
TEST(BehaviourPin, GatedQuorum) {
    pin_gated(ReplicationMode::kQuorum, kNone, 70103,
              {13835u, 0x493fe892ef1b936cu, 0x01562e20ce4b279bu, 0xc180a1135dd6cb2eu});
}

TEST(BehaviourPin, MasterWarmRestartFanout) {
    pin_gated(ReplicationMode::kFanout, kMasterWarm, 70201,
              {10375u, 0x843a5f33f3ef4a4eu, 0x24db309e8878afe3u, 0x3bcd4a3e76fd32b1u});
}
TEST(BehaviourPin, MasterWarmRestartChain) {
    pin_gated(ReplicationMode::kChain, kMasterWarm, 70202,
              {11786u, 0xca94727fcc500fb6u, 0x9d45c6d57aa5eff8u, 0x49ded00825dd9440u});
}
TEST(BehaviourPin, MasterWarmRestartQuorum) {
    pin_gated(ReplicationMode::kQuorum, kMasterWarm, 70203,
              {13869u, 0xd46e470de96601e7u, 0x7c0b7ebf9d237fc7u, 0x3add42cf5e1dce95u});
}

TEST(BehaviourPin, MasterColdRestartFanout) {
    pin_gated(ReplicationMode::kFanout, kMasterCold, 70301,
              {11049u, 0x63755bb0d7be1a4bu, 0x4a8267d6e8a78d8cu, 0x2d51ec525027d8f5u},
              kPersist);
}
TEST(BehaviourPin, MasterColdRestartChain) {
    pin_gated(ReplicationMode::kChain, kMasterCold, 70302,
              {11441u, 0x9c5242d12c1433eeu, 0x3e00b06877bd3bcau, 0xbc2096932a3c60f8u},
              kPersist);
}
TEST(BehaviourPin, MasterColdRestartQuorum) {
    pin_gated(ReplicationMode::kQuorum, kMasterCold, 70303,
              {14548u, 0xf0cb2cd27b236e36u, 0x1dfd4fcf4dc38e55u, 0x7d41ea223e4bd098u},
              kPersist);
}

TEST(BehaviourPin, NicRestartFanout) {
    pin_gated(ReplicationMode::kFanout, kNic, 70401,
              {10678u, 0xd56dfc6e4a7b687cu, 0xb7a489deb20f93abu, 0x137916bd5afe8bdeu});
}
TEST(BehaviourPin, NicRestartChain) {
    pin_gated(ReplicationMode::kChain, kNic, 70402,
              {10955u, 0xb6341f055d9c4ce3u, 0x0e0a749a31651f15u, 0x86af771fa5d02d70u});
}
TEST(BehaviourPin, NicRestartQuorum) {
    pin_gated(ReplicationMode::kQuorum, kNic, 70403,
              {14917u, 0xcf6682a37f0c8a84u, 0x4af748752eedbebau, 0xf8c855eb0b9e34bau});
}

} // namespace
} // namespace skv::offload
