#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "skv/cluster.hpp"
#include "workload/retry_client.hpp"
#include "workload/runner.hpp"
#include "workload/ycsb/workload_mix.hpp"

namespace skv::workload::ycsb {

/// Knobs of the open-loop driver (see EXPERIMENTS.md knob ledger).
///
/// Open loop means arrivals are scheduled by a rate process, independent of
/// completions: when the server slows down, requests queue at the driver
/// instead of the offered load silently dropping. Latency is measured from
/// each op's *intended start* (its arrival), so queue wait is included —
/// the coordinated-omission-safe methodology.
struct OpenLoopOptions {
    YcsbOptions ycsb{};
    /// Simulated connection pool: each arrival is dispatched to an idle
    /// connection, or queued FIFO until one frees up.
    int connections = 256;
    /// Connections are spread over client hosts this many per host (one
    /// simulated core per host, as redis-benchmark threads would be).
    int connections_per_host = 64;
    /// Offered arrival rate (thousands of ops per second), as Poisson
    /// arrivals (exponential gaps).
    double offered_kops = 40.0;
    sim::Duration warmup{sim::milliseconds(300)};
    sim::Duration measure{sim::seconds(2)};
    bool preload = true;
    /// Per-connection retry/timeout machinery (same semantics as the
    /// closed-loop RetryClient fleet).
    RetryPolicy policy{};
    /// When non-zero, collect RunResult::timeline_kops at this bin width.
    sim::Duration timeline_bin{sim::Duration::zero()};
    /// Fill RunResult::stages from the measurement window (tracer-based).
    bool trace_stages = false;
};

/// Per-op-type latency digest (intended-start based, like the merged run).
struct OpTypeStats {
    std::uint64_t ops = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double p999_us = 0;
};

struct OpenLoopResult {
    /// Merged coordinated-omission-safe result: ops/errors/latency over
    /// every op that *arrived* in the measurement window (even if it
    /// completed during the drain), timeline and stage breakdown included.
    RunResult run;
    double offered_kops = 0;
    /// Completions of measurement-window arrivals / window length. Tracks
    /// offered_kops until the server saturates, then flattens while the
    /// latency tail explodes — the canonical open-loop signature.
    double achieved_kops = 0;
    std::uint64_t arrivals = 0;  // ops that arrived inside the window
    std::uint64_t completed = 0; // of those, completed before drain ended
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t retries = 0; // across all connections, whole run
    /// High-water mark of arrivals waiting for a free connection: the
    /// backlog a closed-loop driver would never let build up.
    std::uint64_t peak_queued = 0;
    std::array<OpTypeStats, YcsbOp::kKindCount> per_type{};

    [[nodiscard]] std::string summary() const;
};

/// Drive the cluster with an open-loop YCSB arrival stream and measure.
/// The cluster must already be start()ed. One MixGenerator produces the
/// arrival-ordered op stream (so the connection count never perturbs the
/// operation sequence); connections only execute.
OpenLoopResult run_open_loop(offload::Cluster& cluster,
                             const OpenLoopOptions& opts);

} // namespace skv::workload::ycsb
