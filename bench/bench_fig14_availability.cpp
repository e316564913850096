// Figure 14: availability under slave failure. SET load against the SKV
// master while one slave's Host-KV crashes at t=4s and recovers at t=9s.
//
// Paper shape: Nic-KV's probes detect the failure within waiting-time,
// mark the node invalid in the node list, and stop replicating to it;
// master throughput stays above 300 kops/s (here: above ~90% of the
// healthy level) and the client never notices. On recovery the invalid
// flag is cleared and replication resumes (with a NIC-arranged partial
// resync for the bytes missed while down).
//
// Two variants run back to back: the paper's clean-crash timeline, and the
// same timeline with 1% message loss injected on every replication link
// (NIC <-> slave and master <-> slave). The reliable node-message layer
// retransmits through the loss, so the availability shape should survive
// with no false failovers on the healthy slaves. A JSON summary of both
// variants is emitted at the end for plotting.

// A third family of variants exercises the worst case: the *master* host
// crashes and stays down. Retrying clients (per-op deadlines, capped
// backoff, WSEQ duplicate-suppression tokens) ride the Nic-KV failover
// onto the promoted stand-in; each variant reports the availability gap
// (time from the last pre-crash successful SET to the first post-crash
// successful SET) and an acked-write-loss audit (acknowledged writes the
// promoted stand-in does not hold). The family runs once per replication
// protocol — fanout, chain, quorum (DESIGN.md §13) — since failover
// semantics are exactly where the protocols differ.

#include <algorithm>
#include <map>

#include "bench_common.hpp"
#include "check/history.hpp"
#include "workload/chaos.hpp"

using namespace skv;
using namespace skv::bench;

namespace {

struct VariantResult {
    std::string name;
    std::vector<double> timeline_kops;
    double healthy = 0;
    double min_during = 1e18;
    unsigned long long failures = 0;
    unsigned long long recoveries = 0;
    unsigned long long resyncs = 0;
    unsigned long long fault_drops = 0;
    bool reconverged = false;
};

VariantResult run_variant(const std::string& name, double repl_drop_prob) {
    auto cluster = make_cluster(System::kSkv, 3);

    if (repl_drop_prob > 0) {
        workload::fault_replication_links(*cluster, {.drop_prob = repl_drop_prob});
    }

    workload::RunOptions opts;
    opts.clients = 16;
    opts.spec.set_ratio = 1.0;
    opts.spec.value_bytes = 64;
    opts.measure = sim::seconds(12);
    opts.timeline_bin = sim::milliseconds(500);
    // Crash slave 1 at t=4s; recover it at t=9s (paper timeline).
    opts.faults.push_back({sim::seconds(4), 1, false});
    opts.faults.push_back({sim::seconds(9), 1, true});

    const auto r = workload::run_workload(*cluster, opts);

    VariantResult out;
    out.name = name;
    out.timeline_kops = r.timeline_kops;

    print_header("Fig. 14 (" + name +
                     "): SKV throughput during slave failure/recovery",
                 {"t(s)", "kops/s"});
    for (std::size_t i = 0; i < r.timeline_kops.size(); ++i) {
        const double t = static_cast<double>(i) * 0.5;
        if (t >= 12.0) break;
        std::printf("%14.1f%14.1f\n", t, r.timeline_kops[i]);
        if (t < 3.5) out.healthy = std::max(out.healthy, r.timeline_kops[i]);
    }
    for (std::size_t i = 8; i < 18 && i < r.timeline_kops.size(); ++i) {
        out.min_during = std::min(out.min_during, r.timeline_kops[i]);
    }

    auto& nic_stats = cluster->nic_kv()->stats();
    out.failures = nic_stats.counter("failures_detected");
    out.recoveries = nic_stats.counter("recoveries_detected");
    out.resyncs = nic_stats.counter("resyncs_requested");
    if (cluster->fabric().has_faults()) {
        out.fault_drops = cluster->fabric().faults().stats().counter("drops");
    }

    std::printf("\nhealthy throughput ~%.0f kops/s; minimum during the "
                "failure window %.0f kops/s (%.0f%% of healthy)\n",
                out.healthy, out.min_during,
                100.0 * out.min_during / out.healthy);
    std::printf("failure detector: %llu failures detected, %llu recoveries, "
                "%llu resyncs requested; %llu messages dropped by fault "
                "injection\n",
                out.failures, out.recoveries, out.resyncs, out.fault_drops);

    // Drain and check the recovered slave converged again (the lossy
    // variant gets longer: retransmission has to finish the tail).
    cluster->sim().run_until(cluster->sim().now() +
                             (repl_drop_prob > 0 ? sim::seconds(6)
                                                 : sim::seconds(2)));
    out.reconverged = cluster->slave(1).slave_applied_offset() ==
                      cluster->master().master_offset();
    std::printf("slave1 re-converged after recovery: %s\n",
                out.reconverged ? "yes" : "NO");
    return out;
}

// --- master-crash / failover variant ------------------------------------

struct CrashVariantResult {
    std::string name = "master crash failover";
    std::vector<double> timeline_kops;
    /// First post-crash successful SET completion minus the last pre-crash
    /// one, in milliseconds. Negative if no SET succeeded after the crash.
    double recovery_ms = -1.0;
    double crash_t_s = 0;
    unsigned long long failovers = 0;
    unsigned long long failures = 0;
    std::uint64_t ops_ok = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t ops_timed_out = 0;
    std::uint64_t retries = 0;
    /// Acked-write-loss audit: keys whose last write was acknowledged but
    /// whose value the promoted stand-in does not hold. Commit gating is
    /// supposed to keep this at zero under every protocol.
    std::uint64_t keys_audited = 0;
    std::uint64_t acked_writes_lost = 0;
    bool drained = false;
};

CrashVariantResult run_master_crash_variant(server::ReplicationMode mode) {
    // The worst case the paper's Fig. 14 does not show: the *master* host
    // crashes at t=3s and never comes back. Nic-KV's probes (paper-default
    // cadence: 1 s interval, 1.5 s waiting-time) detect the silence and
    // promote a slave; retrying clients rediscover the write path by
    // rotating targets. Commit gating — one replica ack (fanout), the full
    // chain (chain), a replica majority released by the NIC's watermark
    // (quorum) — makes the failover lossless for acknowledged writes.
    workload::ChaosScenario scenario{
        .cluster = workload::gated_cluster_config(42, mode)};
    // Eight SET-only clients (recovery == first accepted write), bounded by
    // time: they stop when the schedule ends, at t=12s.
    workload::ChaosFleet& fleet = scenario.fleet;
    fleet.clients = 8;
    fleet.ops_each = 0;
    fleet.spec.set_ratio = 1.0;
    fleet.spec.key_count = 64;
    fleet.spec.value_bytes = 64;
    fleet.spec.key_prefix = "av:";
    fleet.policy.attempt_timeout = sim::milliseconds(100);
    fleet.policy.op_deadline = sim::seconds(8);
    fleet.policy.turnaround = sim::milliseconds(2);
    // The master stays down: this measures failover, not reboot.
    scenario.schedule = {{sim::seconds(3), workload::ChaosStep::Action::kCrash, -1},
                         {sim::seconds(9)}};
    scenario.drain_cap = sim::seconds(10);
    const workload::ChaosRun run = scenario.run();
    const check::History& hist = *run.history;
    const sim::SimTime t0 = run.started;
    const std::int64_t crash_ns = run.first_fault.ns();

    CrashVariantResult out;
    out.name = std::string("master crash failover (") + to_string(mode) + ")";
    out.crash_t_s = static_cast<double>(crash_ns - t0.ns()) / 1e9;
    out.drained = run.drained;

    // Recovery time and the availability timeline both come straight from
    // the recorded history: successful SET completions, bucketed at 500 ms.
    std::int64_t last_pre = -1;
    std::int64_t first_post = -1;
    out.timeline_kops.assign(24, 0.0);
    for (const auto& op : hist.ops()) {
        if (op.outcome != check::Outcome::kOk) continue;
        if (op.complete_ns <= crash_ns) {
            last_pre = std::max(last_pre, op.complete_ns);
        } else if (first_post < 0 || op.complete_ns < first_post) {
            first_post = op.complete_ns;
        }
        const auto bin = static_cast<std::size_t>(
            (op.complete_ns - t0.ns()) / sim::milliseconds(500).ns());
        if (bin < out.timeline_kops.size()) {
            out.timeline_kops[bin] += 1.0 / 500.0; // ops per 500ms -> kops/s
        }
    }
    if (last_pre >= 0 && first_post >= 0) {
        out.recovery_ms = static_cast<double>(first_post - last_pre) / 1e6;
    }
    for (const auto& cl : run.clients) {
        out.ops_ok += cl->ops_ok();
        out.ops_failed += cl->ops_failed();
        out.ops_timed_out += cl->ops_timed_out();
        out.retries += cl->retries();
    }
    offload::Cluster& cluster = *run.cluster;
    auto& nic_stats = cluster.nic_kv()->stats();
    out.failures = nic_stats.counter("failures_detected");
    out.failovers = nic_stats.counter("failovers");

    // Acked-write-loss audit against the promoted stand-in: for every key
    // whose chronologically last write was acknowledged (kOk) — so no
    // maybe-applied straggler can legitimately overwrite it — the stand-in
    // must hold exactly that value.
    server::KvServer* standin = nullptr;
    for (int i = 0; i < cluster.slave_count(); ++i) {
        if (cluster.slave(i).role() == server::Role::kMaster) {
            standin = &cluster.slave(i);
        }
    }
    if (standin != nullptr) {
        std::map<std::string, const check::Op*> last_write;
        for (const auto& op : hist.ops()) {
            if (op.type != check::OpType::kWrite) continue;
            auto& slot = last_write[op.key];
            if (slot == nullptr || op.invoke_ns > slot->invoke_ns) slot = &op;
        }
        for (const auto& [key, op] : last_write) {
            if (op->outcome != check::Outcome::kOk) continue;
            ++out.keys_audited;
            const auto obj = standin->db().lookup(key);
            if (obj == nullptr || obj->string_value() != op->value) {
                ++out.acked_writes_lost;
            }
        }
    }

    print_header("Fig. 14 (master crash, " + std::string(to_string(mode)) +
                     "): retrying SET clients across failover",
                 {"t(s)", "kops/s"});
    for (std::size_t i = 0; i < out.timeline_kops.size(); ++i) {
        std::printf("%14.1f%14.1f\n", static_cast<double>(i) * 0.5,
                    out.timeline_kops[i]);
    }
    std::printf("\nmaster crashed at t=%.1fs (kept down); %llu failure "
                "detected, %llu failover\n",
                out.crash_t_s, out.failures, out.failovers);
    std::printf("recovery time to first successful SET: %.1f ms\n",
                out.recovery_ms);
    std::printf("ops: %llu ok, %llu failed, %llu timed out, %llu retries; "
                "clients drained: %s\n",
                static_cast<unsigned long long>(out.ops_ok),
                static_cast<unsigned long long>(out.ops_failed),
                static_cast<unsigned long long>(out.ops_timed_out),
                static_cast<unsigned long long>(out.retries),
                out.drained ? "yes" : "NO");
    std::printf("acked-write audit: %llu keys checked, %llu acked writes "
                "lost\n",
                static_cast<unsigned long long>(out.keys_audited),
                static_cast<unsigned long long>(out.acked_writes_lost));
    return out;
}

void print_json(const std::vector<VariantResult>& variants,
                const std::vector<CrashVariantResult>& crashes) {
    // One series per variant: summary scalars on the series, the 500 ms
    // throughput timeline as its points.
    FigureJson j("fig14_availability");
    for (const auto& r : variants) {
        auto& w = j.begin_series(r.name);
        w.kv("healthy_kops", r.healthy)
            .kv("min_during_failure_kops", r.min_during)
            .kv("failures_detected",
                static_cast<std::uint64_t>(r.failures))
            .kv("recoveries", static_cast<std::uint64_t>(r.recoveries))
            .kv("resyncs", static_cast<std::uint64_t>(r.resyncs))
            .kv("fault_drops", static_cast<std::uint64_t>(r.fault_drops));
        w.key("reconverged").value_bool(r.reconverged);
        j.begin_points();
        for (std::size_t i = 0; i < r.timeline_kops.size(); ++i) {
            auto& p = j.point();
            p.key("t_s").value(static_cast<double>(i) * 0.5, 1);
            p.kv("kops", r.timeline_kops[i]);
            j.end_point();
        }
        j.end_series();
    }
    for (const auto& crash : crashes) {
        auto& w = j.begin_series(crash.name);
        w.kv("recovery_ms", crash.recovery_ms)
            .kv("crash_t_s", crash.crash_t_s)
            .kv("failures_detected",
                static_cast<std::uint64_t>(crash.failures))
            .kv("failovers", static_cast<std::uint64_t>(crash.failovers))
            .kv("ops_ok", crash.ops_ok)
            .kv("ops_failed", crash.ops_failed)
            .kv("ops_timed_out", crash.ops_timed_out)
            .kv("retries", crash.retries)
            .kv("keys_audited", crash.keys_audited)
            .kv("acked_writes_lost", crash.acked_writes_lost);
        w.key("drained").value_bool(crash.drained);
        j.begin_points();
        for (std::size_t i = 0; i < crash.timeline_kops.size(); ++i) {
            auto& p = j.point();
            p.key("t_s").value(static_cast<double>(i) * 0.5, 1);
            p.kv("kops", crash.timeline_kops[i]);
            j.end_point();
        }
        j.end_series();
    }
    j.emit();
}

} // namespace

int main() {
    std::vector<VariantResult> variants;
    variants.push_back(run_variant("clean", 0.0));
    variants.push_back(run_variant("1% repl loss", 0.01));
    std::vector<CrashVariantResult> crashes;
    crashes.push_back(run_master_crash_variant(server::ReplicationMode::kFanout));
    crashes.push_back(run_master_crash_variant(server::ReplicationMode::kChain));
    crashes.push_back(run_master_crash_variant(server::ReplicationMode::kQuorum));
    print_json(variants, crashes);
    return 0;
}
