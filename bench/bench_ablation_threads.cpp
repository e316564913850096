// Ablation (paper §III-C): the thread-num parameter — multi-threaded
// replication on the SmartNIC's ARM cores.
//
// Paper claims: (1) since replication runs in the background, NIC-side
// multi-threading does not materially change client-visible performance;
// (2) it spreads the fan-out work across ARM cores, accelerating
// replication when one core would run hot (useful when consistency
// freshness matters); (3) the effective thread count is clamped to
// min(ARM cores, slaves). Checked with 16 KB values, the heaviest fan-out
// load in the evaluation. At that size one ARM thread cannot keep the
// slaves current, so the master's lag gate (paper §III-D) rejects writes:
// the bench reports successful SETs and the rejected share, not only
// replies, and the slowest slave's applied-offset lag beside Nic-KV's
// parse cursor.

#include <algorithm>

#include "bench_common.hpp"

using namespace skv;
using namespace skv::bench;

namespace {

struct Point {
    int threads;
    int effective;
    workload::RunResult r;
    double ok_kops;  // successful SETs per second of the window
    double rejected; // share of the window's SETs the master rejected
    double nic_lag_bytes;   // master offset - Nic-KV's parse cursor
    double slave_lag_bytes; // master offset - slowest slave's applied offset
    double nic_core0_util;
};

/// The point for `threads`. A thread count that clamps to the effective
/// count of an `earlier` point runs the same simulation, so its measurement
/// is reused instead of driven again.
Point run_with_threads(int threads, std::size_t value_bytes, int n_slaves,
                       const std::vector<Point>& earlier) {
    offload::ClusterConfig cfg;
    cfg.n_slaves = n_slaves;
    cfg.transport = server::Transport::kRdma;
    cfg.offload = true;
    cfg.nic_cfg.thread_num = threads;
    auto cluster = std::make_unique<offload::Cluster>(cfg);
    cluster->start();
    const int effective = cluster->nic_kv()->effective_threads();
    for (const Point& e : earlier) {
        if (e.effective == effective) {
            Point p = e;
            p.threads = threads;
            return p;
        }
    }

    workload::RunOptions opts;
    opts.clients = 8;
    opts.spec.set_ratio = 1.0;
    opts.spec.value_bytes = value_bytes;
    opts.measure = sim::seconds(2);
    auto r = workload::run_workload(*cluster, opts);

    Point p;
    p.threads = threads;
    p.effective = effective;
    p.r = r;
    p.ok_kops = static_cast<double>(r.ops - r.failed_ops) / opts.measure.sec() / 1e3;
    p.rejected = static_cast<double>(r.failed_ops) / static_cast<double>(r.ops);
    const std::int64_t head = cluster->master().master_offset();
    p.nic_lag_bytes = static_cast<double>(head - cluster->nic_kv()->fanout_offset());
    std::int64_t slowest = head;
    for (int i = 0; i < cluster->slave_count(); ++i) {
        slowest = std::min(slowest, cluster->slave(i).slave_applied_offset());
    }
    p.slave_lag_bytes = static_cast<double>(head - slowest);
    p.nic_core0_util = cluster->smartnic()->core(0).utilization();
    return p;
}

} // namespace

int main() {
    constexpr std::size_t kValue = 16 * 1024; // stresses the single ARM core

    std::vector<Point> points;
    for (const int t : {1, 2, 4, 8, 16}) {
        points.push_back(run_with_threads(t, kValue, 3, points));
    }

    print_header("Ablation: NIC replication threads (16 KB values, 3 slaves)",
                 {"threads", "effective", "replies k/s", "ok SET k/s",
                  "rejected %", "nic lag MB", "slave lag MB", "arm0 %"});
    for (const auto& p : points) {
        print_cell(static_cast<long long>(p.threads));
        print_cell(static_cast<long long>(p.effective));
        print_cell(p.r.throughput_kops);
        print_cell(p.ok_kops);
        print_cell(p.rejected * 100.0);
        print_cell(p.nic_lag_bytes / 1e6);
        print_cell(p.slave_lag_bytes / 1e6);
        print_cell(p.nic_core0_util * 100.0);
        end_row();
    }

    const Point& one = points.front();
    const Point& most = points.back();
    std::printf("\nchecks:\n");
    std::printf("  effective threads clamped to min(cores=8, slaves=3): %s\n",
                most.effective == 3 ? "yes" : "NO");
    std::printf("  successful SETs %.1f -> %.1f kops/s (%+.1f%%) from 1 thread "
                "to max: the lag gate rejects %.0f%% -> %.0f%% of writes, so "
                "at 16 KB NIC threads are not background work\n",
                one.ok_kops, most.ok_kops,
                100.0 * (most.ok_kops / one.ok_kops - 1.0), one.rejected * 100.0,
                most.rejected * 100.0);
    std::printf("  fan-out spread across cores: arm0 utilization %.0f%% -> "
                "%.0f%%; slowest slave %.1f -> %.1f MB behind the master\n",
                one.nic_core0_util * 100.0, most.nic_core0_util * 100.0,
                one.slave_lag_bytes / 1e6, most.slave_lag_bytes / 1e6);

    FigureJson j("ablation_threads");
    j.begin_series("SKV");
    j.begin_points();
    for (const auto& p : points) {
        auto& w = j.point();
        w.kv("threads", p.threads).kv("effective_threads", p.effective);
        add_run_fields(w, p.r);
        w.kv("ok_kops", p.ok_kops)
            .kv("rejected_frac", p.rejected)
            .kv("lag_mb", p.nic_lag_bytes / 1e6)
            .kv("slave_lag_mb", p.slave_lag_bytes / 1e6)
            .kv("arm0_util", p.nic_core0_util);
        j.end_point();
    }
    j.end_series();
    j.emit();
    return 0;
}
