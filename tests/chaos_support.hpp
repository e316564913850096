#pragma once

// Shared chaos-test scaffolding: the crash-tuned cluster factory, the
// retrying client fleet, the linearizability gate (with minimal-artifact
// dumps and a per-scenario budget-exhaustion summary), and a synchronous
// raw-connection shell. Used by chaos_crash_test.cpp (fan-out protocol)
// and chaos_repl_test.cpp (protocol menu matrix).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "kv/resp.hpp"
#include "skv/cluster.hpp"
#include "workload/retry_client.hpp"

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

/// Crash-chaos cluster: SKV topology with a fast failure detector (so
/// failover completes well inside client op deadlines), immediate apply
/// acks, commit gating on one replica, and linearizable read routing
/// (replicas refuse reads unless the protocol says otherwise, so
/// retrying clients always find a legitimate server).
struct CrashClusterOpts {
    int n_slaves = 2;
    int wait_for_slaves = 1;
    sim::Duration persist_interval{};
    bool serve_stale_reads = false;
    sim::Duration waiting_time{sim::milliseconds(450)};
    /// Which replication protocol the cluster runs (DESIGN.md §13).
    server::ReplicationMode replication_mode = server::ReplicationMode::kFanout;
    /// Test-only quorum fault injection (see NicKvConfig).
    int quorum_slave_acks_override = -1;
    /// Chain-mode tail read lease; must stay below the detector's
    /// invalidation latency (waiting_time + probe_interval).
    sim::Duration chain_read_lease{sim::milliseconds(400)};
};

inline std::unique_ptr<Cluster> make_crash_cluster(
    std::uint64_t seed, const CrashClusterOpts& o = {}) {
    ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = o.n_slaves;
    cfg.offload = true;
    cfg.nic_cfg.probe_interval = sim::milliseconds(200);
    cfg.nic_cfg.waiting_time = o.waiting_time;
    cfg.nic_cfg.quorum_slave_acks_override = o.quorum_slave_acks_override;
    cfg.server_tmpl.ack_interval = sim::milliseconds(20);
    cfg.server_tmpl.ack_on_apply = true;
    cfg.server_tmpl.wait_for_slaves = o.wait_for_slaves;
    cfg.server_tmpl.wait_timeout = sim::milliseconds(150);
    cfg.server_tmpl.serve_stale_reads = o.serve_stale_reads;
    cfg.server_tmpl.persist_interval = o.persist_interval;
    cfg.server_tmpl.probe_silence_timeout = sim::seconds(1);
    cfg.server_tmpl.replication_mode = o.replication_mode;
    cfg.server_tmpl.chain_read_lease = o.chain_read_lease;
    auto c = std::make_unique<Cluster>(cfg);
    c->tracer().set_enabled(true);
    c->start();
    return c;
}

/// A fleet of retrying clients sharing one recorded history.
struct Fleet {
    check::History history;
    std::vector<std::shared_ptr<workload::RetryClient>> clients;
    std::uint64_t ops_issued = 0;
    /// Protocol-aware read routing: when set, each read's first attempt
    /// goes to this target index (0 = master, 1+i = slave i). Chain-mode
    /// fleets point it at the tail; retries still rotate everywhere.
    std::size_t read_first = SIZE_MAX;

    /// `turnaround` paces the clients so the workload genuinely overlaps
    /// the injected faults instead of finishing before the first crash.
    void spawn(Cluster& c, int n, std::uint64_t ops_each, double set_ratio,
               sim::Duration turnaround = sim::milliseconds(25)) {
        std::vector<workload::RetryClient::Target> targets;
        targets.push_back({c.master().node().ep, c.master().config().port});
        for (int i = 0; i < c.slave_count(); ++i) {
            targets.push_back(
                {c.slave(i).node().ep, c.slave(i).config().port});
        }
        auto dial = [&c](net::NodeRef from, workload::RetryClient::Target t,
                         std::function<void(net::ChannelPtr)> cb) {
            c.cm().connect(from, t.ep, t.port, std::move(cb));
        };
        workload::RetryPolicy pol;
        pol.attempt_timeout = sim::milliseconds(120);
        pol.op_deadline = sim::seconds(4);
        pol.turnaround = turnaround;
        for (int i = 0; i < n; ++i) {
            workload::WorkloadSpec spec;
            spec.set_ratio = set_ratio;
            spec.key_count = 8; // small keyspace: real read/write contention
            spec.value_bytes = 16;
            spec.key_prefix = "ck:";
            workload::Generator gen(spec, c.sim().fork_rng());
            auto node = c.add_client_host("rc" + std::to_string(i));
            clients.push_back(std::make_shared<workload::RetryClient>(
                c.sim(), c.costs(), node, 100 + static_cast<std::uint64_t>(i),
                std::move(gen), pol, targets, dial, &history));
            if (read_first != SIZE_MAX) {
                clients.back()->set_read_first(read_first);
            }
        }
        for (auto& cl : clients) cl->start(ops_each);
        ops_issued += static_cast<std::uint64_t>(n) * ops_each;
    }

    [[nodiscard]] bool all_idle() const {
        for (const auto& cl : clients) {
            if (!cl->idle()) return false;
        }
        return true;
    }

    /// Run the sim until every client finished its ops. Returning false
    /// means a client hung — itself an acceptance failure.
    [[nodiscard]] bool drain(Cluster& c, sim::Duration cap) {
        const auto stop = c.sim().now() + cap;
        while (c.sim().now() < stop) {
            if (all_idle()) return true;
            c.sim().run_until(c.sim().now() + sim::milliseconds(20));
        }
        return all_idle();
    }

    [[nodiscard]] std::uint64_t ok() const {
        std::uint64_t n = 0;
        for (const auto& cl : clients) n += cl->ops_ok();
        return n;
    }

    /// Nonzero retries prove the workload was live while faults were in.
    [[nodiscard]] std::uint64_t total_retries() const {
        std::uint64_t n = 0;
        for (const auto& cl : clients) n += cl->retries();
        return n;
    }
};

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

/// The linearizability gate. On a violation — or an indeterminate verdict
/// from budget exhaustion — the *minimal offending per-key sub-history*
/// is dumped to chaos_history_<seed>.json (CI uploads it together with
/// the chrome trace) so the offending schedule can be replayed offline
/// without wading through every other key's ops.
inline void gate_linearizable(Cluster& c, const check::History& hist,
                              const std::string& scenario) {
    const auto res = check::check_history(hist);
    const std::string tag =
        scenario + " seed " + std::to_string(c.sim().seed());
    if (res.budget_exhausted) ++budget_exhaustions()[scenario];
    if (!res.linearizable || res.budget_exhausted) {
        char path[64];
        std::snprintf(path, sizeof(path), "chaos_history_%016llx.json",
                      static_cast<unsigned long long>(c.sim().seed()));
        if (std::FILE* f = std::fopen(path, "wb")) {
            const std::string json = res.offending_key.empty()
                                         ? hist.to_json()
                                         : hist.to_json_for_key(res.offending_key);
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

/// Minimal synchronous command shell over a raw channel, for tests that
/// need precise control over which node serves which request.
class RawConn {
public:
    RawConn(Cluster& c, net::EndpointId ep, std::uint16_t port,
            const std::string& name)
        : cluster_(c) {
        node_ = c.add_client_host(name);
        c.cm().connect(node_, ep, port, [this](net::ChannelPtr ch) {
            ch_ = std::move(ch);
            ch_->set_on_message([this](std::string payload) {
                parser_.feed(payload);
            });
        });
        c.sim().run_until(c.sim().now() + sim::milliseconds(20));
    }

    [[nodiscard]] bool connected() const { return ch_ != nullptr; }

    /// Send and wait (bounded) for the reply.
    kv::resp::Value call(const std::vector<std::string>& argv,
                         sim::Duration timeout = sim::seconds(2)) {
        ch_->send(kv::resp::command(argv));
        const auto stop = cluster_.sim().now() + timeout;
        kv::resp::Value v;
        while (cluster_.sim().now() < stop) {
            if (parser_.next(&v) == kv::resp::Status::kOk) return v;
            cluster_.sim().run_until(cluster_.sim().now() +
                                     sim::milliseconds(1));
        }
        ADD_FAILURE() << "no reply to " << argv[0] << " within timeout";
        return v;
    }

private:
    Cluster& cluster_;
    net::NodeRef node_;
    net::ChannelPtr ch_;
    kv::resp::ReplyParser parser_;
};

} // namespace skv::offload::chaos
