#pragma once

// Shared helpers for the figure-reproduction harnesses: cluster builders
// for the three systems (TCP Redis, RDMA-Redis, SKV) and table printing.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "skv/cluster.hpp"
#include "workload/runner.hpp"

namespace skv::bench {

using offload::System;

/// Build a started cluster of the given system with `n_slaves` replicas.
inline std::unique_ptr<offload::Cluster> make_cluster(System sys, int n_slaves,
                                                      std::uint64_t seed = 42) {
    offload::ClusterConfig cfg = offload::config_of(sys);
    cfg.seed = seed;
    cfg.n_slaves = n_slaves;
    auto cluster = std::make_unique<offload::Cluster>(cfg);
    cluster->start();
    return cluster;
}

inline void print_header(const std::string& title,
                         const std::vector<std::string>& cols) {
    std::printf("\n== %s ==\n", title.c_str());
    for (const auto& c : cols) std::printf("%14s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%14s", "------------");
    std::printf("\n");
}

inline void print_cell(const char* s) { std::printf("%14s", s); }
inline void print_cell(double v) { std::printf("%14.1f", v); }
inline void print_cell(long long v) { std::printf("%14lld", v); }
inline void end_row() { std::printf("\n"); }

/// Machine-readable figure output, schema v1 (EXPERIMENTS.md, "Bench JSON
/// schema"): every figure binary ends with one `JSON: {...}` line built on
/// obs::JsonWriter, whose fixed snprintf float formatting makes the whole
/// document byte-stable across same-seed runs.
///
/// Document shape:
///   {"schema_version":1,"figure":"<name>",
///    "series":[{"name":"<series>",<optional scalars>,"points":[{...}]}]}
///
/// Call order per series: begin_series(name) -> optional kv()s on the
/// returned writer -> begin_points() -> {point()/end_point()}* ->
/// end_series(). Finish the document with emit().
class FigureJson {
public:
    explicit FigureJson(std::string_view figure) {
        w_.begin_object().kv("schema_version", 1).kv("figure", figure);
        w_.key("series").begin_array();
    }
    obs::JsonWriter& begin_series(std::string_view name) {
        w_.begin_object().kv("name", name);
        return w_;
    }
    void begin_points() { w_.key("points").begin_array(); }
    obs::JsonWriter& point() {
        w_.begin_object();
        return w_;
    }
    void end_point() { w_.end_object(); }
    void end_series() { w_.end_array().end_object(); }
    void emit() {
        w_.end_array().end_object();
        obs::print_bench_json(w_);
    }

private:
    obs::JsonWriter w_;
};

/// The standard per-run fields every figure's points carry for a RunResult.
inline void add_run_fields(obs::JsonWriter& w, const workload::RunResult& r) {
    w.kv("kops", r.throughput_kops)
        .kv("mean_us", r.mean_us)
        .kv("p50_us", r.p50_us)
        .kv("p95_us", r.p95_us)
        .kv("p99_us", r.p99_us)
        .kv("p999_us", r.p999_us)
        .kv("ops", r.ops)
        .kv("errors", r.errors)
        .kv("cpu_util", r.master_cpu_util);
}

/// Nested "stages" object from a tracer-backed per-stage breakdown.
inline void add_stage_fields(obs::JsonWriter& w,
                             const workload::StageBreakdown& s) {
    w.key("stages").begin_object();
    w.kv("requests", s.requests)
        .kv("e2e_us", s.e2e_us)
        .kv("rdma_write_us", s.rdma_write_us)
        .kv("master_apply_us", s.master_apply_us)
        .kv("reply_us", s.reply_us)
        .kv("critical_sum_us", s.critical_sum_us)
        .kv("offload_request_us", s.offload_request_us)
        .kv("nic_fanout_us", s.nic_fanout_us)
        .kv("slave_ack_us", s.slave_ack_us);
    w.end_object();
}

/// `--trace <path>`: dump the cluster's chrome://tracing span JSON after
/// the run (README, "Dumping a trace"). Returns true when a dump happened.
inline bool maybe_dump_trace(int argc, char** argv,
                             offload::Cluster& cluster) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0) {
            const std::string path = argv[i + 1];
            if (obs::write_chrome_trace(cluster.tracer(), path)) {
                std::fprintf(stderr, "chrome trace written to %s\n",
                             path.c_str());
                return true;
            }
            std::fprintf(stderr, "failed to write chrome trace to %s\n",
                         path.c_str());
        }
    }
    return false;
}

} // namespace skv::bench
