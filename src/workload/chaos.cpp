#include "workload/chaos.hpp"

#include <string>
#include <utility>

#include "sim/check.hpp"

namespace skv::workload {

offload::ClusterConfig crash_cluster_config(std::uint64_t seed,
                                            server::ReplicationMode mode,
                                            int n_slaves) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = n_slaves;
    cfg.offload = true;
    cfg.nic_cfg.probe_interval = sim::milliseconds(200);
    cfg.nic_cfg.waiting_time = sim::milliseconds(450);
    cfg.server_tmpl.ack_interval = sim::milliseconds(20);
    cfg.server_tmpl.ack_on_apply = true;
    cfg.server_tmpl.wait_for_slaves = 1;
    cfg.server_tmpl.wait_timeout = sim::milliseconds(150);
    cfg.server_tmpl.serve_stale_reads = false;
    cfg.server_tmpl.probe_silence_timeout = sim::seconds(1);
    cfg.server_tmpl.replication_mode = mode;
    return cfg;
}

std::unique_ptr<offload::Cluster> start_traced(const offload::ClusterConfig& cfg) {
    auto c = std::make_unique<offload::Cluster>(cfg);
    c->tracer().set_enabled(true);
    c->start();
    return c;
}

void fault_replication_links(offload::Cluster& c, const net::FaultSpec& spec) {
    auto& faults = c.fabric().faults();
    for (int i = 0; i < c.slave_count(); ++i) {
        const auto si = c.slave(i).node().ep;
        faults.set_link(c.nic_kv()->endpoint(), si, spec);
        faults.set_link(c.master().node().ep, si, spec);
        for (int j = i + 1; j < c.slave_count(); ++j) {
            faults.set_link(si, c.slave(j).node().ep, spec);
        }
    }
}

std::vector<RetryClient::Target> retry_targets(offload::Cluster& c) {
    std::vector<RetryClient::Target> targets;
    targets.push_back({c.master().node().ep, c.master().config().port});
    for (int i = 0; i < c.slave_count(); ++i) {
        targets.push_back({c.slave(i).node().ep, c.slave(i).config().port});
    }
    return targets;
}

RetryClient::DialFn retry_dial(offload::Cluster& c) {
    return [&c](net::NodeRef from, RetryClient::Target t,
                std::function<void(net::ChannelPtr)> cb) {
        c.transport().connect(from, t.ep, t.port, std::move(cb));
    };
}

int chain_tail(offload::Cluster& c) {
    const auto order = c.nic_kv()->chain_order();
    // Chain entries are full "<name>@<ep>" identities.
    for (int i = 0; !order.empty() && i < c.slave_count(); ++i) {
        if (order.back().starts_with(c.slave(i).config().name + "@")) return i;
    }
    return -1;
}

namespace {

bool all_idle(const ChaosRun& r) {
    for (const auto& cl : r.clients) {
        if (!cl->idle()) return false;
    }
    return true;
}

void act(const ChaosStep& step, ChaosRun& r) {
    using Action = ChaosStep::Action;
    offload::Cluster& c = *r.cluster;
    int node = step.node;
    if (node == ChaosStep::kChainTail) {
        SKV_CHECK(r.read_tail >= 0);
        node = r.read_tail;
    }
    const auto ep = [&c, node] {
        return c.server(node).node().ep;
    };
    net::FaultSpec cut;
    cut.blocked = true;
    switch (step.action) {
        case Action::kPass: break;
        case Action::kCrash: c.crash_node(node); break;
        case Action::kWarmRestart:
            c.restart_node(node, server::KvServer::RecoveryMode::kWarm);
            break;
        case Action::kColdRestart:
            c.restart_node(node, server::KvServer::RecoveryMode::kCold);
            break;
        case Action::kCrashNic: c.crash_nic(); break;
        case Action::kRestartNic: c.restart_nic(); break;
        case Action::kBlock: c.fabric().faults().set_endpoint(ep(), cut); break;
        case Action::kUnblock: c.fabric().faults().clear_endpoint(ep()); break;
        case Action::kStorm: r.storm_crashes += c.schedule_crash_storm(step.storm); break;
    }
}

} // namespace

ChaosRun ChaosScenario::run() const {
    ChaosRun r;
    r.cluster = start_traced(cluster);
    r.history = std::make_unique<check::History>();
    offload::Cluster& c = *r.cluster;
    sim::Simulation& s = c.sim();

    if (link_faults.active()) fault_replication_links(c, link_faults);
    // Chain fleets read from the tail first (the protocol's read-path
    // win); the other protocols keep the sticky master-first rotation.
    if (cluster.server_tmpl.replication_mode == server::ReplicationMode::kChain) {
        r.read_tail = chain_tail(c);
        r.chain_length = c.nic_kv()->chain_order().size();
    }
    const auto targets = retry_targets(c);
    const auto dial = retry_dial(c);
    for (int i = 0; i < fleet.clients; ++i) {
        Generator gen(fleet.spec, s.fork_rng());
        auto node = c.add_client_host("rc" + std::to_string(i));
        auto& cl = r.clients.emplace_back(std::make_shared<RetryClient>(
            s, c.costs(), node, 100 + static_cast<std::uint64_t>(i),
            std::move(gen), fleet.policy, targets, dial, r.history.get()));
        if (r.read_tail >= 0) cl->set_read_first(static_cast<std::size_t>(1 + r.read_tail));
    }
    const bool timed = fleet.ops_each == 0;
    for (auto& cl : r.clients) cl->start(timed ? UINT64_MAX : fleet.ops_each);
    r.started = s.now();

    bool faulted = false;
    for (const ChaosStep& step : schedule) {
        if (step.delay > sim::Duration::zero()) s.run_until(s.now() + step.delay);
        if (step.action != ChaosStep::Action::kPass && !faulted) {
            faulted = true;
            r.first_fault = s.now();
            r.live = !all_idle(r);
        }
        act(step, r);
    }
    if (timed) {
        for (auto& cl : r.clients) cl->stop();
    }

    const sim::SimTime drain_stop = s.now() + drain_cap;
    while (s.now() < drain_stop && !all_idle(r)) {
        s.run_until(s.now() + sim::milliseconds(20));
    }
    r.drained = all_idle(r);
    // A time-bounded fleet issues what it has time for.
    r.complete = timed || r.history->size() ==
                              static_cast<std::uint64_t>(fleet.clients) * fleet.ops_each;
    r.check = check::check_history(*r.history);
    r.linearizable = r.check.linearizable && !r.check.budget_exhausted;
    r.events = s.events_executed();
    r.trace_digest = s.trace_digest();
    return r;
}

std::uint64_t ChaosRun::ops_ok() const {
    std::uint64_t n = 0;
    for (const auto& cl : clients) n += cl->ops_ok();
    return n;
}

std::uint64_t ChaosRun::retries() const {
    std::uint64_t n = 0;
    for (const auto& cl : clients) n += cl->retries();
    return n;
}

bool ChaosRun::settle(sim::Duration window) {
    sim::Simulation& s = cluster->sim();
    s.run_until(s.now() + window);
    return cluster->converged();
}

} // namespace skv::workload
