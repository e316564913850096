#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/histogram.hpp"
#include "sim/time.hpp"
#include "skv/cluster.hpp"
#include "workload/generator.hpp"

namespace skv::workload {

struct RunOptions {
    int clients = 8;
    WorkloadSpec spec{};
    sim::Duration warmup{sim::milliseconds(300)};
    sim::Duration measure{sim::seconds(2)};
    /// When non-zero, also collect a throughput timeline with this bin
    /// width (Fig. 14).
    sim::Duration timeline_bin{sim::Duration::zero()};
    /// Keys preloaded into every node before the run (GET workloads need a
    /// populated keyspace).
    bool preload = false;
    /// Scripted fault injections relative to the start of measurement.
    struct Fault {
        sim::Duration at;
        int slave_idx;
        bool recover; // false = crash, true = recover
    };
    std::vector<Fault> faults;
    /// Enable the cluster tracer for the run and fill
    /// RunResult::stage_breakdown from the measurement window. Off by
    /// default: span collection costs host memory, not sim behavior.
    bool trace_stages = false;
};

/// Mean per-stage latency over the measurement window, from the tracer's
/// exact (sum, count) accumulators snapshotted at window start/end. The
/// critical-path stages (rdma_write, master_apply, reply) tile the
/// end-to-end latency: their sum matches e2e_us to well under 1%. The
/// replication stages overlap the reply (SKV acks the client before the
/// fan-out completes), so they are reported separately, not summed.
struct StageBreakdown {
    bool valid = false;
    std::uint64_t requests = 0;  // fully-stamped flows in the window
    double e2e_us = 0;           // mean client end-to-end
    double rdma_write_us = 0;    // client issue -> master command entry
    double master_apply_us = 0;  // command entry -> reply to transport
    double reply_us = 0;         // reply to transport -> parsed at client
    double critical_sum_us = 0;  // rdma_write + master_apply + reply
    // Async replication legs (means over the window's samples).
    double offload_request_us = 0;  // master propagate -> NIC parse
    double nic_fanout_us = 0;       // NIC parse (or propagate) -> slave apply
    double slave_ack_us = 0;        // master propagate -> covering ack heard

    [[nodiscard]] std::string summary() const;
};

struct RunResult {
    double throughput_kops = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    double max_us = 0;
    std::uint64_t ops = 0;
    /// Errors over the whole run, warm-up included.
    std::uint64_t errors = 0;
    /// run_workload only: the recorded ops (measurement window) answered
    /// by an error.
    std::uint64_t failed_ops = 0;
    double master_cpu_util = 0;
    /// ops/s per timeline bin (empty unless timeline_bin was set).
    std::vector<double> timeline_kops;
    /// Per-stage latency breakdown (valid only when trace_stages was set).
    StageBreakdown stages;

    [[nodiscard]] std::string summary() const;
};

// --- measurement plumbing shared by the closed- and open-loop drivers ----

/// Populate every node's keyspace identically, bypassing replication (the
/// read workloads measure the steady state, not the loading phase).
void preload_keyspace(offload::Cluster& cluster, const WorkloadSpec& spec);

/// Fill the latency/throughput scalars of a RunResult from a merged
/// histogram and the measurement window length (`r.ops` must be set).
void finalize_latency(RunResult& r, const sim::LatencyHistogram& merged,
                      sim::Duration measure);

/// Drive `opts.clients` closed-loop clients against the cluster's master
/// and measure. The cluster must already be start()ed. redis-benchmark
/// methodology: all clients connect first, warm up, then a fixed-length
/// measurement window.
RunResult run_workload(offload::Cluster& cluster, const RunOptions& opts);

} // namespace skv::workload
