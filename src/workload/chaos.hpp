#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "net/fault.hpp"
#include "skv/cluster.hpp"
#include "workload/retry_client.hpp"

// Chaos scenarios as values (DESIGN.md §7, §12): a crash-tuned cluster, a
// retrying client fleet, link faults and a fault schedule, run by one
// runner that returns the cluster, the history and a verdict per invariant.

namespace skv::workload {

/// The crash-tuned SKV cluster: a fast failure detector (200 ms probes,
/// 450 ms waiting-time, so failover completes well inside client op
/// deadlines), re-registration after 1 s of probe silence, immediate apply
/// acks, commit gating on one replica, and replicas that refuse reads
/// unless the protocol says otherwise (linearizable read routing).
offload::ClusterConfig crash_cluster_config(
    std::uint64_t seed,
    server::ReplicationMode mode = server::ReplicationMode::kFanout,
    int n_slaves = 2);

/// Build and start a cluster with span collection on: the chaos
/// fingerprints double as a check that tracing never perturbs the run.
std::unique_ptr<offload::Cluster> start_traced(const offload::ClusterConfig& cfg);

/// Attach `spec` to both directions of every replication link: NIC <->
/// slave, master <-> slave and slave <-> slave (chain relay hops). Client
/// links and the master <-> NIC path stay clean.
void fault_replication_links(offload::Cluster& c, const net::FaultSpec& spec);

/// RetryClient targets (the master, then every slave) and their dialer.
std::vector<RetryClient::Target> retry_targets(offload::Cluster& c);
RetryClient::DialFn retry_dial(offload::Cluster& c);

/// Index of the slave at the tail of Nic-KV's chain, -1 without a chain.
int chain_tail(offload::Cluster& c);

/// `clients` RetryClients sharing one history, each on its own host.
struct ChaosFleet {
    int clients = 3;
    /// Zero bounds the fleet by time instead: the clients issue until the
    /// schedule ends, then stop.
    std::uint64_t ops_each = 40;
    /// A small keyspace, so reads and writes really contend.
    WorkloadSpec spec{.set_ratio = 0.5, .key_count = 8, .value_bytes = 16,
                      .key_prefix = "ck:"};
    /// The turnaround paces the clients so the workload overlaps the
    /// faults instead of finishing before the first one.
    RetryPolicy policy{.attempt_timeout = sim::milliseconds(120),
                       .op_deadline = sim::seconds(4),
                       .turnaround = sim::milliseconds(25)};
};

/// Let `delay` of simulated time pass, then act. A zero delay acts right
/// after the previous step, with no run_until in between.
struct ChaosStep {
    enum class Action : std::uint8_t {
        kPass,
        kCrash,       ///< Cluster::crash_node(node)
        kWarmRestart, ///< restart `node` with its process memory
        kColdRestart, ///< restart `node` from its last persisted snapshot
        kCrashNic,
        kRestartNic,
        kBlock, ///< drop every message to or from `node`'s endpoint
        kUnblock,
        kStorm, ///< Cluster::schedule_crash_storm(storm)
    };
    /// `node` naming the chain's tail as it was when the fleet started.
    static constexpr int kChainTail = -2;

    sim::Duration delay{};
    Action action = Action::kPass;
    /// -1 = the master, 0.. = a slave, or kChainTail.
    int node = -1;
    offload::Cluster::CrashStormSpec storm{};
};

struct ChaosRun;

/// run() starts the cluster, faults every replication link with
/// `link_faults` (if active: an inactive spec forks no RNG stream), routes
/// chain reads to the tail, starts the fleet and performs each step as
/// run_until(now + delay) then the action, so no fault adds an event. Then
/// it drains the fleet for at most `drain_cap` and checks the history.
struct ChaosScenario {
    offload::ClusterConfig cluster = crash_cluster_config(42);
    ChaosFleet fleet{};
    net::FaultSpec link_faults{};
    std::vector<ChaosStep> schedule{};
    sim::Duration drain_cap{sim::seconds(60)};

    [[nodiscard]] ChaosRun run() const;
};

struct ChaosRun {
    std::unique_ptr<offload::Cluster> cluster;
    /// Heap-held: the clients record into it by address.
    std::unique_ptr<check::History> history;
    std::vector<std::shared_ptr<RetryClient>> clients;
    sim::SimTime started = sim::SimTime::zero();     ///< the fleet's start
    sim::SimTime first_fault = sim::SimTime::zero(); ///< first non-kPass step
    int read_tail = -1;    ///< slave reads go to first, -1 for none
    int storm_crashes = 0; ///< crash/restart pairs the kStorm steps scheduled
    /// Length of Nic-KV's chain when the fleet started (0 without a chain).
    std::size_t chain_length = 0;
    std::uint64_t events = 0;
    std::uint64_t trace_digest = 0;
    check::CheckResult check;

    // One verdict per invariant.
    bool live = true;          ///< a client was busy at the first fault
    bool drained = false;      ///< every client went idle within the cap
    bool complete = false;     ///< the history holds clients × ops_each ops
    bool linearizable = false; ///< accepted without exhausting the budget

    [[nodiscard]] std::uint64_t ops_ok() const;
    [[nodiscard]] std::uint64_t retries() const;
    /// The convergence verdict: let `window` pass after the drain, faults
    /// as they stand, then report whether every slave caught up. A separate
    /// call, so what the drain left behind can be read before it.
    bool settle(sim::Duration window);
};

} // namespace skv::workload
