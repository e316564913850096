#pragma once

// Shared chaos-test scaffolding around the scenario runner
// (workload/chaos.hpp): the linearizability gate (with minimal-artifact
// dumps and a per-scenario budget-exhaustion summary), the scenario bodies
// both crash suites run, the double-run determinism fingerprint, the
// determinism audits' SET/GET loop, and the bounded call, history recorder
// and tail isolation of the hand-driven consistency traps. Used by
// chaos_crash_test.cpp (fan-out protocol), chaos_repl_test.cpp (protocol
// menu matrix), behaviour_pin_test.cpp, trace_audit_test.cpp and
// obs_determinism_test.cpp.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "kv/resp.hpp"
#include "skv/cluster.hpp"
#include "workload/chaos.hpp"
#include "workload/session.hpp"

namespace skv::offload::chaos {

/// 64-bit FNV-1a: pins a run's fingerprint to a constant recorded from an
/// earlier commit.
inline std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/// Per-scenario count of checker budget exhaustions across the whole test
/// binary, reported in the suite summary so an under-sized search budget
/// is visible even when retries make the gate flaky-green elsewhere.
inline std::map<std::string, int>& budget_exhaustions() {
    static std::map<std::string, int> counts;
    return counts;
}

class ChaosSummaryEnv : public ::testing::Environment {
public:
    void TearDown() override {
        const auto& counts = budget_exhaustions();
        if (counts.empty()) {
            std::fprintf(stderr,
                         "[chaos-summary] checker budget exhaustions: none\n");
            return;
        }
        for (const auto& [scenario, n] : counts) {
            std::fprintf(stderr,
                         "[chaos-summary] checker budget exhausted %d time(s) "
                         "in scenario '%s'\n",
                         n, scenario.c_str());
        }
    }
};

inline const bool chaos_summary_registered =
    (::testing::AddGlobalTestEnvironment(new ChaosSummaryEnv), true);

/// The linearizability gate over a run's verdict. On a violation — or an
/// indeterminate verdict from budget exhaustion — the *minimal offending
/// per-key sub-history* is dumped to chaos_history_<seed>.json (CI uploads
/// it together with the chrome trace) so the offending schedule can be
/// replayed offline without wading through every other key's ops.
inline void gate_linearizable(const workload::ChaosRun& r,
                              const std::string& scenario) {
    const auto& res = r.check;
    const std::uint64_t seed = r.cluster->sim().seed();
    const std::string tag = scenario + " seed " + std::to_string(seed);
    if (res.budget_exhausted) ++budget_exhaustions()[scenario];
    if (!r.linearizable) {
        char path[64];
        std::snprintf(path, sizeof(path), "chaos_history_%016llx.json",
                      static_cast<unsigned long long>(seed));
        if (std::FILE* f = std::fopen(path, "wb")) {
            const std::string json =
                res.offending_key.empty()
                    ? r.history->to_json()
                    : r.history->to_json_for_key(res.offending_key);
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::fprintf(stderr,
                         "[chaos-audit] offending sub-history (key '%s') "
                         "written to %s\n",
                         res.offending_key.c_str(), path);
        }
    }
    EXPECT_FALSE(res.budget_exhausted) << tag << ": " << res.reason;
    EXPECT_TRUE(res.linearizable) << tag << ": " << res.reason;
}

// --- scenario bodies shared by ChaosCrash.* and ChaosRepl*.* -------------
// Each takes a scenario's cluster and fleet, adds its fault schedule and
// asserts its verdicts; `name` keys the gate's budget-exhaustion summary.

/// Master crash + failover: the master dies 400 ms into the workload and
/// stays dead. Clients must ride over to the promoted stand-in and every op
/// must complete (successfully or with an explicit failure) inside its
/// deadline.
inline void master_crash(workload::ChaosScenario s, const std::string& name) {
    using enum workload::ChaosStep::Action;
    const std::uint64_t seed = s.cluster.seed;
    s.schedule = {{sim::milliseconds(400), kCrash, -1}};
    const auto r = s.run();
    ASSERT_TRUE(r.live) << "workload finished pre-crash";
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    EXPECT_GT(r.retries(), 0u) << "seed " << seed;
    EXPECT_EQ(r.cluster->nic_kv()->stats().counter("failovers"), 1u)
        << "seed " << seed;
    int promoted = 0;
    for (int i = 0; i < r.cluster->slave_count(); ++i) {
        if (r.cluster->slave(i).role() == server::Role::kMaster) ++promoted;
    }
    EXPECT_EQ(promoted, 1) << "seed " << seed;
    // Progress resumed after the crash, not just before it.
    bool ok_after_crash = false;
    for (const auto& cl : r.clients) {
        if (cl->last_ok_at() > r.first_fault) ok_after_crash = true;
    }
    EXPECT_TRUE(ok_after_crash) << "seed " << seed;
    gate_linearizable(r, name);
}

/// Slave crash during replication under commit gating: writes park on
/// replica acks, the crash must unblock them through the detector (flush,
/// or -WAITTIMEOUT and a retry), and the warm restart 800 ms later must
/// resync without corrupting the history. The restarted slave converges
/// within `settle`.
inline void slave_crash(workload::ChaosScenario s, const std::string& name,
                        sim::Duration settle) {
    using enum workload::ChaosStep::Action;
    const std::uint64_t seed = s.cluster.seed;
    s.fleet.spec.set_ratio = 0.7;
    s.schedule = {{sim::milliseconds(300), kCrash, 0},
                  {sim::milliseconds(800), kWarmRestart, 0}};
    auto r = s.run();
    ASSERT_TRUE(r.live) << "workload finished pre-crash";
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    // Commit gating was actually exercised (every protocol parks the reply
    // for at least the replication round trip).
    EXPECT_GT(r.cluster->master().stats().counter("writes_parked"), 0u)
        << "seed " << seed;
    gate_linearizable(r, name);
    EXPECT_TRUE(r.settle(settle)) << "seed " << seed;
    EXPECT_TRUE(r.cluster->master().db().equals(r.cluster->slave(0).db()))
        << "seed " << seed;
}

/// Crash + partition at once on three slaves: slave 2 is cut off, slave 1
/// crashes 200 ms later, and both heal together a second after that.
/// Under quorum, 2 of 4 replicas are impaired meanwhile, so writes park and
/// time out explicitly until the heal: the gate checks consistency, not
/// availability.
inline void crash_plus_partition(workload::ChaosScenario s,
                                 const std::string& name) {
    using enum workload::ChaosStep::Action;
    const std::uint64_t seed = s.cluster.seed;
    s.schedule = {{sim::milliseconds(300), kBlock, 2},
                  {sim::milliseconds(200), kCrash, 1},
                  {sim::seconds(1), kWarmRestart, 1},
                  {{}, kUnblock, 2}};
    auto r = s.run();
    ASSERT_TRUE(r.live) << "workload finished pre-fault";
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    gate_linearizable(r, name);
    EXPECT_TRUE(r.settle(sim::seconds(10))) << "seed " << seed;
}

/// A seeded storm of six warm slave restarts (each down 400 ms) with four
/// paced clients live throughout: the storm spans at most ~6 × 900 ms and
/// the paced workload runs longer, so crashes land while clients are live.
inline void restart_storm(workload::ChaosScenario s, const std::string& name) {
    using enum workload::ChaosStep::Action;
    const std::uint64_t seed = s.cluster.seed;
    s.fleet.clients = 4;
    s.fleet.policy.turnaround = sim::milliseconds(60);
    s.schedule = {{.action = kStorm,
                   .storm = {.crashes = 6, .downtime = sim::milliseconds(400)}}};
    s.drain_cap = sim::seconds(90);
    auto r = s.run();
    EXPECT_GT(r.storm_crashes, 0) << "seed " << seed;
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_TRUE(r.complete) << "seed " << seed;
    EXPECT_EQ(r.cluster->master().role(), server::Role::kMaster)
        << "seed " << seed;
    gate_linearizable(r, name);
    EXPECT_TRUE(r.settle(sim::seconds(10))) << "seed " << seed;
}

/// One run of the double-run determinism scenario — `ops_each` ops from
/// each of two clients while the master crashes 300 ms in, slave 0 crashes
/// 400 ms later and comes back warm after another 500 ms — reduced to its
/// fingerprint: event count, trace digest, history, Nic-KV counters and
/// successful ops.
inline std::string crash_sequence_fingerprint(std::uint64_t seed,
                                              server::ReplicationMode mode,
                                              std::uint64_t ops_each) {
    using enum workload::ChaosStep::Action;
    workload::ChaosScenario s{
        .cluster = workload::crash_cluster_config(seed, mode),
        .fleet = {.clients = 2, .ops_each = ops_each}};
    s.schedule = {{sim::milliseconds(300), kCrash, -1},
                  {sim::milliseconds(400), kCrash, 0},
                  {sim::milliseconds(500), kWarmRestart, 0}};
    const auto r = s.run();
    EXPECT_TRUE(r.live);
    EXPECT_TRUE(r.drained);
    std::string fp;
    fp += std::to_string(r.events) + "|";
    fp += std::to_string(r.trace_digest) + "|";
    fp += r.history->to_json() + "|";
    fp += r.cluster->nic_kv()->stats().format() + "|";
    fp += std::to_string(r.ops_ok());
    return fp;
}

/// Record one op of a hand-driven trap test: writes as client 1, reads as
/// client 2, sequenced by invocation time.
inline void record(check::History& hist, check::OpType type,
                   const std::string& key, const std::string& value,
                   std::int64_t invoke_ns, std::int64_t complete_ns) {
    check::Op op;
    op.client = type == check::OpType::kWrite ? 1 : 2;
    op.seq = static_cast<std::uint64_t>(invoke_ns);
    op.type = type;
    op.key = key;
    op.value = value;
    op.invoke_ns = invoke_ns;
    op.complete_ns = complete_ns;
    hist.record(op);
}

/// Cut the chain tail off from the NIC, the master and its predecessor
/// (the other slave of a two-slave chain) in both directions; clients can
/// still reach it.
inline void isolate_tail(Cluster& c, int tail) {
    net::FaultSpec cut;
    cut.blocked = true;
    auto& faults = c.fabric().faults();
    const auto tail_ep = c.slave(tail).node().ep;
    for (const auto peer : {c.nic_kv()->endpoint(), c.master().node().ep,
                            c.slave(tail == 0 ? 1 : 0).node().ep}) {
        faults.set_link(peer, tail_ep, cut);
    }
}

/// The determinism audits' workload: `ops` commands closed-loop over a
/// fresh session `s`, SET k<i> v then GET k<i>, each sent when the previous
/// reply lands (none may be an error), in 20 ms slices for at most 10 s.
/// Returns how many replies arrived.
inline int set_get_loop(workload::Session& s, int ops) {
    int sent = 0;
    const auto send_next = [&] {
        const std::string key = std::string("k").append(std::to_string(sent / 2));
        s.send(sent % 2 == 0 ? std::vector<std::string>{"SET", key, "v"}
                             : std::vector<std::string>{"GET", key});
        ++sent;
    };
    s.on_reply([&](const kv::resp::Value& v) {
        EXPECT_FALSE(v.is_error());
        if (sent < ops) send_next();
    });
    send_next();
    const auto replies = [&] { return static_cast<int>(s.replies().size()); };
    s.run_until([&] { return replies() >= sent; }, sim::seconds(10),
                sim::milliseconds(20));
    s.on_reply(nullptr);
    return replies();
}

/// Session::call for the hand-driven traps: a reply that does not land
/// within the bound fails the test and reads as a null value.
inline kv::resp::Value call(workload::Session& s,
                            const std::vector<std::string>& argv) {
    auto v = s.call(argv);
    if (!v) ADD_FAILURE() << "no reply to " << argv[0] << " within timeout";
    return v.value_or(kv::resp::Value{});
}

} // namespace skv::offload::chaos
