// Side-by-side demo of the paper's three systems under an identical SET
// workload: TCP Redis, RDMA-Redis (host-side replication fan-out) and SKV
// (fan-out offloaded to the SmartNIC). Prints throughput/latency, the
// master's CPU utilization, and the offload bookkeeping that explains the
// difference — the paper's core argument in one run.
//
//   ./build/examples/replicated_cluster [clients] [seconds]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "skv/cluster.hpp"
#include "workload/runner.hpp"

using namespace skv;

namespace {

void run_system(offload::System sys, int clients, int seconds) {
    offload::ClusterConfig cfg = offload::config_of(sys);
    cfg.n_slaves = 3;
    offload::Cluster cluster(cfg);
    cluster.start();

    workload::RunOptions opts;
    opts.clients = clients;
    opts.spec.set_ratio = 1.0;
    opts.spec.value_bytes = 64;
    opts.measure = sim::seconds(seconds);
    const auto r = workload::run_workload(cluster, opts);

    std::printf("%-11s %10.1f %9.1f %9.1f %7.0f%%",
                offload::name_of(sys), r.throughput_kops, r.mean_us, r.p99_us,
                r.master_cpu_util * 100.0);
    if (cfg.offload) {
        std::printf("   (master posted %llu WRs for replication; Nic-KV fanned "
                    "out %llu)",
                    static_cast<unsigned long long>(
                        cluster.master().stats().counter("repl_offload_requests")),
                    static_cast<unsigned long long>(
                        cluster.nic_kv()->stats().counter("fanout_sends")));
    } else {
        std::printf("   (master posted %llu per-slave replication WRs itself)",
                    static_cast<unsigned long long>(
                        cluster.master().stats().counter("repl_sends")));
    }
    std::printf("\n");

    // Let in-flight replication drain before checking convergence.
    cluster.sim().run_until(cluster.sim().now() + sim::milliseconds(500));
    if (!cluster.converged()) {
        std::printf("  WARNING: slaves had not fully drained the stream\n");
    }
}

} // namespace

int main(int argc, char** argv) {
    const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
    const int seconds = argc > 2 ? std::atoi(argv[2]) : 2;

    std::printf("SET workload, 1 master + 3 slaves, %d clients, %ds "
                "(simulated)\n\n",
                clients, seconds);
    std::printf("%-11s %10s %9s %9s %8s\n", "system", "kops/s", "avg us",
                "p99 us", "cpu");

    using offload::System;
    for (const auto sys : {System::kTcpRedis, System::kRdmaRedis, System::kSkv}) {
        run_system(sys, clients, seconds);
    }

    std::printf("\nSKV's gain comes from the master posting one work request "
                "per write\ninstead of one per slave; the SmartNIC's ARM "
                "cores do the fan-out.\n");
    return 0;
}
