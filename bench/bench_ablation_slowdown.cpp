// Ablation (paper §II/§IV-A): how weak can the SmartNIC cores get before
// offloading stops paying? The paper's design rests on offloading only
// background work because the ARM cores are "much weaker" than the host's.
// We sweep the ARM-core slowdown factor and report SKV's gain over
// RDMA-Redis plus the replication lag — the regime where the NIC can no
// longer drain the stream is exactly why SKV does NOT store data on the
// NIC or put it on the client-facing path.

#include "bench_common.hpp"

using namespace skv;
using namespace skv::bench;

int main() {
    workload::RunOptions opts;
    opts.clients = 8;
    opts.spec.set_ratio = 1.0;
    opts.spec.value_bytes = 1024;
    opts.measure = sim::seconds(2);

    // Baseline once: it has no SmartNIC.
    auto base_cluster = make_cluster(System::kRdmaRedis, 3);
    const auto base = workload::run_workload(*base_cluster, opts);

    struct Point {
        double slowdown;
        workload::RunResult r;
        double lag_bytes;
        double arm0_util;
    };
    std::vector<Point> points;
    for (const double slow : {1.0, 2.5, 5.0, 10.0, 20.0}) {
        offload::ClusterConfig cfg = offload::config_of(System::kSkv);
        cfg.n_slaves = 3;
        cfg.nic_params.core_slowdown = slow;
        auto cluster = std::make_unique<offload::Cluster>(cfg);
        cluster->start();
        const auto r = workload::run_workload(*cluster, opts);
        const double lag = static_cast<double>(
            cluster->master().master_offset() - cluster->nic_kv()->fanout_offset());
        points.push_back(
            Point{slow, r, lag, cluster->smartnic()->core(0).utilization()});
    }

    print_header("Ablation: ARM core slowdown sweep (1 KB values, 3 slaves)",
                 {"slowdown", "SKV kops/s", "gain%", "lag MB", "arm0 %"});
    for (const auto& p : points) {
        print_cell(p.slowdown);
        print_cell(p.r.throughput_kops);
        print_cell(100.0 * (p.r.throughput_kops / base.throughput_kops - 1.0));
        print_cell(p.lag_bytes / 1e6);
        print_cell(p.arm0_util * 100.0);
        end_row();
    }
    std::printf("\nclient-visible throughput stays ahead of the baseline "
                "(%.1f kops/s) even with very weak cores — but the growing\n"
                "replication lag shows the offload becoming unsustainable, "
                "which is why SKV offloads only background work.\n",
                base.throughput_kops);

    FigureJson j("ablation_slowdown");
    auto& bw = j.begin_series("RDMA-Redis baseline");
    bw.kv("note", "no SmartNIC; slowdown does not apply");
    j.begin_points();
    {
        auto& w = j.point();
        add_run_fields(w, base);
        j.end_point();
    }
    j.end_series();
    j.begin_series("SKV");
    j.begin_points();
    for (const auto& p : points) {
        auto& w = j.point();
        w.kv("slowdown", p.slowdown);
        add_run_fields(w, p.r);
        w.kv("lag_mb", p.lag_bytes / 1e6).kv("arm0_util", p.arm0_util);
        j.end_point();
    }
    j.end_series();
    j.emit();
    return 0;
}
