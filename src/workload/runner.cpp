#include "workload/runner.hpp"

#include <array>
#include <cstdio>
#include <memory>

#include "kv/object.hpp"
#include "obs/tracer.hpp"
#include "workload/client.hpp"

namespace skv::workload {

std::string StageBreakdown::summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "e2e=%.1fus = rdma_write=%.1f + master_apply=%.1f + "
                  "reply=%.1f (sum=%.1f) | async: offload=%.1f fanout=%.1f "
                  "slave_ack=%.1f",
                  e2e_us, rdma_write_us, master_apply_us, reply_us,
                  critical_sum_us, offload_request_us, nic_fanout_us,
                  slave_ack_us);
    return buf;
}

std::string RunResult::summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "tput=%.1f kops/s mean=%.1fus p50=%.1fus p99=%.1fus "
                  "ops=%llu errs=%llu cpu=%.0f%%",
                  throughput_kops, mean_us, p50_us, p99_us,
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(errors),
                  master_cpu_util * 100.0);
    return buf;
}

void preload_keyspace(offload::Cluster& cluster, const WorkloadSpec& spec) {
    Generator loader(spec, cluster.sim().fork_rng());
    for (std::uint64_t i = 0; i < spec.key_count; ++i) {
        const std::string key = spec.key_prefix + std::to_string(i);
        const std::string val = loader.make_value();
        cluster.master().db().set(key, kv::Object::make_string(val));
        for (int s = 0; s < cluster.slave_count(); ++s) {
            cluster.slave(s).db().set(key, kv::Object::make_string(val));
        }
    }
}

void finalize_latency(RunResult& r, const sim::LatencyHistogram& merged,
                      sim::Duration measure) {
    r.throughput_kops = static_cast<double>(r.ops) / measure.sec() / 1e3;
    r.mean_us = merged.mean_us();
    r.p50_us = static_cast<double>(merged.p50_ns()) / 1e3;
    r.p95_us = static_cast<double>(merged.quantile_ns(0.95)) / 1e3;
    r.p99_us = static_cast<double>(merged.p99_ns()) / 1e3;
    r.p999_us = static_cast<double>(merged.p999_ns()) / 1e3;
    r.max_us = static_cast<double>(merged.max_ns()) / 1e3;
}

namespace {

/// Binned completion counter behind RunResult::timeline_kops. Disabled
/// (all no-ops) when bin is zero.
class ThroughputTimeline {
public:
    ThroughputTimeline(sim::Duration bin, sim::Duration span) : bin_(bin) {
        if (enabled()) {
            bins_.assign(static_cast<std::size_t>(span.ns() / bin.ns() + 1), 0);
        }
    }
    [[nodiscard]] bool enabled() const { return bin_.ns() > 0; }
    /// Count one completion at `offset` past the measurement-window start.
    void record(sim::Duration offset) {
        if (!enabled()) return;
        const auto idx = static_cast<std::size_t>(offset.ns() / bin_.ns());
        if (idx < bins_.size()) ++bins_[idx];
    }
    /// Convert counts to kops/s and store into `r.timeline_kops`.
    void fill(RunResult& r) const {
        if (!enabled()) return;
        r.timeline_kops.reserve(bins_.size());
        for (const auto b : bins_) {
            r.timeline_kops.push_back(static_cast<double>(b) / bin_.sec() / 1e3);
        }
    }

private:
    sim::Duration bin_;
    std::vector<std::uint64_t> bins_;
};

/// Snapshot-and-diff of the tracer's per-stage accumulators so a stage
/// breakdown covers exactly one measurement window (matched request
/// populations).
class StageWindow {
public:
    /// Snapshot the accumulators at window start.
    void begin(const obs::Tracer& tracer) {
        for (std::size_t i = 0; i < before_.size(); ++i) {
            before_[i] = tracer.stage_accum(static_cast<obs::Stage>(i));
        }
    }
    /// Diff against the snapshot and fill `out` (sets out.valid).
    void finish(const obs::Tracer& tracer, StageBreakdown* out) const;

private:
    std::array<obs::StageAccum, static_cast<std::size_t>(obs::Stage::kCount)>
        before_{};
};

void StageWindow::finish(const obs::Tracer& tracer,
                         StageBreakdown* out) const {
    const auto mean_delta_us = [&](obs::Stage st, std::uint64_t* n) {
        const auto& after = tracer.stage_accum(st);
        const auto& before = before_[static_cast<std::size_t>(st)];
        const std::uint64_t count = after.count - before.count;
        if (n != nullptr) *n = count;
        if (count == 0) return 0.0;
        return static_cast<double>(after.sum_ns - before.sum_ns) /
               static_cast<double>(count) / 1e3;
    };
    StageBreakdown& sb = *out;
    sb.e2e_us = mean_delta_us(obs::Stage::kClientE2e, &sb.requests);
    sb.rdma_write_us = mean_delta_us(obs::Stage::kRdmaWrite, nullptr);
    sb.master_apply_us = mean_delta_us(obs::Stage::kMasterApply, nullptr);
    sb.reply_us = mean_delta_us(obs::Stage::kReply, nullptr);
    sb.critical_sum_us = sb.rdma_write_us + sb.master_apply_us + sb.reply_us;
    sb.offload_request_us = mean_delta_us(obs::Stage::kOffloadRequest, nullptr);
    sb.nic_fanout_us = mean_delta_us(obs::Stage::kNicFanout, nullptr);
    sb.slave_ack_us = mean_delta_us(obs::Stage::kSlaveAck, nullptr);
    sb.valid = sb.requests > 0;
}

} // namespace

RunResult run_workload(offload::Cluster& cluster, const RunOptions& opts) {
    auto& sim = cluster.sim();

    if (opts.preload) preload_keyspace(cluster, opts.spec);

    // All clients live on one load-generator host, as redis-benchmark does.
    const net::NodeRef client_host = cluster.add_client_host("loadgen");
    std::vector<std::shared_ptr<BenchClient>> clients;
    clients.reserve(static_cast<std::size_t>(opts.clients));

    // Timeline bookkeeping.
    auto timeline = std::make_shared<ThroughputTimeline>(opts.timeline_bin,
                                                         opts.measure);
    sim::SimTime measure_start = sim::SimTime::zero();

    obs::Tracer& tracer = cluster.tracer();
    if (opts.trace_stages) tracer.set_enabled(true);

    for (int i = 0; i < opts.clients; ++i) {
        auto client = std::make_shared<BenchClient>(
            sim, cluster.costs(), client_host,
            Generator(opts.spec, sim.fork_rng()));
        if (opts.trace_stages) {
            client->set_tracer(&tracer, "client/" + std::to_string(i));
        }
        if (timeline->enabled()) {
            client->set_completion_hook(
                [timeline, &measure_start, &sim](sim::Duration) {
                    timeline->record(sim.now() - measure_start);
                });
        }
        clients.push_back(client);
        cluster.transport().connect(
            client_host, cluster.master().node().ep,
            cluster.master().config().port, [client](net::ChannelPtr ch) {
                if (ch) client->attach(std::move(ch));
            });
    }

    // Warmup, then flip every client to recording.
    sim.run_until(sim.now() + opts.warmup);
    measure_start = sim.now();
    const double busy_before =
        static_cast<double>(cluster.master().node().core->total_busy().ns());
    // Snapshot the exact per-stage accumulators so the breakdown covers
    // only the measurement window (matched request populations).
    StageWindow stage_window;
    stage_window.begin(tracer);
    for (auto& c : clients) c->set_recording(true);

    // Scripted faults (Fig. 14).
    for (const auto& f : opts.faults) {
        sim.at(measure_start + f.at, [&cluster, f]() {
            if (f.recover) {
                cluster.slave(f.slave_idx).recover();
            } else {
                cluster.slave(f.slave_idx).crash();
            }
        });
    }

    sim.run_until(measure_start + opts.measure);
    for (auto& c : clients) {
        c->set_recording(false);
        c->stop();
    }

    RunResult res;
    sim::LatencyHistogram merged;
    for (const auto& c : clients) {
        merged.merge(c->latencies());
        res.ops += c->recorded_ops();
        res.errors += c->errors();
        res.failed_ops += c->recorded_errors();
    }
    finalize_latency(res, merged, opts.measure);
    res.master_cpu_util =
        (cluster.master().node().core->total_busy().ns() - busy_before) /
        static_cast<double>(opts.measure.ns());
    timeline->fill(res);
    if (opts.trace_stages) {
        stage_window.finish(tracer, &res.stages);
    }
    return res;
}

} // namespace skv::workload
