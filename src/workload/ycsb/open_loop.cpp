#include "workload/ycsb/open_loop.hpp"

#include <cstdio>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "workload/chaos.hpp"

namespace skv::workload::ycsb {

std::string OpenLoopResult::summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "offered=%.1f achieved=%.1f kops/s p50=%.1fus p99=%.1fus "
                  "p999=%.1fus arrivals=%llu done=%llu errs=%llu backlog=%llu",
                  offered_kops, achieved_kops, run.p50_us, run.p99_us,
                  run.p999_us, static_cast<unsigned long long>(arrivals),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed + timed_out),
                  static_cast<unsigned long long>(peak_queued));
    return buf;
}

namespace {

std::size_t kind_idx(YcsbOp::Kind t) { return static_cast<std::size_t>(t); }

/// A timeout on either leg means the op may have (partially) applied;
/// otherwise any failed leg fails the op.
check::Outcome combine(check::Outcome a, check::Outcome b) {
    if (a == check::Outcome::kTimeout || b == check::Outcome::kTimeout) {
        return check::Outcome::kTimeout;
    }
    if (a == check::Outcome::kFail || b == check::Outcome::kFail) {
        return check::Outcome::kFail;
    }
    return check::Outcome::kOk;
}

struct Pending {
    YcsbOp op;
    sim::SimTime intended; // arrival time: latency is measured from here
    bool record = false;
};

/// The open-loop scheduler: one arrival process, one FIFO backlog, one
/// LIFO pool of idle connections. Held in a shared_ptr because in-flight
/// op callbacks (and their retry timers) may outlive run_open_loop's
/// drain cap.
struct Driver : std::enable_shared_from_this<Driver> {
    Driver(sim::Simulation& s, const OpenLoopOptions& o, MixGenerator m)
        : sim(s), opts(o), mix(std::move(m)), arr_rng(s.fork_rng()),
          timeline(o.timeline_bin, o.measure) {}

    sim::Simulation& sim;
    OpenLoopOptions opts; // copied: in-flight callbacks may outlive the caller
    MixGenerator mix;
    sim::Rng arr_rng; // arrival-gap draws (own stream)
    ThroughputTimeline timeline;

    std::vector<std::shared_ptr<RetryClient>> conns;
    std::vector<std::size_t> idle; // LIFO free list
    std::deque<Pending> queue;     // FIFO backlog of arrivals

    sim::SimTime measure_begin = sim::SimTime::zero();
    sim::SimTime measure_end = sim::SimTime::zero();

    std::uint64_t in_flight = 0;
    std::uint64_t arrivals_recorded = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t peak_queued = 0;
    sim::LatencyHistogram merged;
    std::array<sim::LatencyHistogram, YcsbOp::kKindCount> per_type{};

    [[nodiscard]] bool drained() const {
        return in_flight == 0 && queue.empty();
    }

    [[nodiscard]] sim::Duration next_gap() {
        const double g = arr_rng.next_exponential(1e6 / opts.offered_kops);
        auto ns = static_cast<std::int64_t>(g + 0.5);
        if (ns < 1) ns = 1;
        return sim::Duration(ns);
    }

    void schedule_next_arrival() {
        const sim::Duration gap = next_gap();
        if (sim.now() + gap >= measure_end) return; // arrivals cease
        auto self = shared_from_this();
        sim.after(gap, [self]() {
            self->on_arrival();
            self->schedule_next_arrival();
        });
    }

    void on_arrival() {
        Pending p;
        p.op = mix.next();
        p.intended = sim.now();
        p.record = sim.now() >= measure_begin;
        if (p.record) ++arrivals_recorded;
        if (!idle.empty()) {
            const std::size_t i = idle.back();
            idle.pop_back();
            dispatch(i, std::move(p));
            return;
        }
        queue.push_back(std::move(p));
        if (queue.size() > peak_queued) peak_queued = queue.size();
    }

    void dispatch(std::size_t i, Pending p) {
        ++in_flight;
        auto self = shared_from_this();
        if (p.op.kind == YcsbOp::Kind::kRmw) {
            // Read-modify-write: a dependent read-then-write pair on one
            // connection; latency covers both legs from the arrival.
            RetryClient::DrivenOp rd;
            rd.key = p.op.key;
            conns[i]->issue(std::move(rd), [self, i, p = std::move(p)](
                                               check::Outcome ro) mutable {
                RetryClient::DrivenOp wr;
                wr.type = check::OpType::kWrite;
                wr.key = p.op.key;
                wr.value = std::move(p.op.value);
                self->conns[i]->issue(
                    std::move(wr),
                    [self, i, p = std::move(p), ro](check::Outcome wo) mutable {
                        self->complete(i, std::move(p), combine(ro, wo));
                    });
            });
            return;
        }
        RetryClient::DrivenOp d;
        switch (p.op.kind) {
        case YcsbOp::Kind::kRead:
            d.key = p.op.key;
            break;
        case YcsbOp::Kind::kUpdate:
        case YcsbOp::Kind::kInsert:
            d.type = check::OpType::kWrite;
            d.key = p.op.key;
            d.value = p.op.value;
            break;
        case YcsbOp::Kind::kScan:
            d.key = p.op.key;
            d.scan_keys = p.op.scan_keys;
            break;
        case YcsbOp::Kind::kRmw:
            SKV_UNREACHABLE("handled above");
        }
        conns[i]->issue(std::move(d),
                        [self, i, p = std::move(p)](check::Outcome o) mutable {
                            self->complete(i, std::move(p), o);
                        });
    }

    void complete(std::size_t i, Pending p, check::Outcome o) {
        SKV_CHECK(in_flight > 0);
        --in_flight;
        if (p.record) {
            // Intended-start latency: queue wait included (CO-safe).
            const sim::Duration lat = sim.now() - p.intended;
            ++completed;
            merged.record(lat);
            per_type[kind_idx(p.op.kind)].record(lat);
            if (o == check::Outcome::kFail) ++failed;
            if (o == check::Outcome::kTimeout) ++timed_out;
            timeline.record(sim.now() - measure_begin);
        }
        if (!queue.empty()) {
            Pending next = std::move(queue.front());
            queue.pop_front();
            dispatch(i, std::move(next));
            return;
        }
        idle.push_back(i);
    }
};

} // namespace

OpenLoopResult run_open_loop(offload::Cluster& cluster,
                             const OpenLoopOptions& opts) {
    auto& sim = cluster.sim();
    SKV_CHECK(opts.connections >= 1);
    SKV_CHECK(opts.connections_per_host >= 1);
    SKV_CHECK(opts.offered_kops > 0);

    if (opts.preload) {
        WorkloadSpec pspec;
        pspec.key_count = opts.ycsb.record_count;
        pspec.key_dist = KeyDist::kUniform; // loader only draws values
        pspec.value_bytes = opts.ycsb.value_bytes;
        pspec.key_prefix = opts.ycsb.key_prefix;
        preload_keyspace(cluster, pspec);
    }

    obs::Tracer& tracer = cluster.tracer();
    if (opts.trace_stages) tracer.set_enabled(true);

    auto frontier = std::make_shared<KeyFrontier>(opts.ycsb.record_count);
    auto driver = std::make_shared<Driver>(
        sim, opts, MixGenerator(opts.ycsb, sim.fork_rng(), frontier));

    const auto targets = retry_targets(cluster);
    const auto dial = retry_dial(cluster);

    const int cph = opts.connections_per_host;
    std::vector<net::NodeRef> hosts;
    hosts.reserve(static_cast<std::size_t>((opts.connections + cph - 1) / cph));
    driver->conns.reserve(static_cast<std::size_t>(opts.connections));
    for (int i = 0; i < opts.connections; ++i) {
        if (i / cph >= static_cast<int>(hosts.size())) {
            hosts.push_back(
                cluster.add_client_host("ycsb" + std::to_string(i / cph)));
        }
        // The per-connection Generator is unused in driven mode (the driver
        // owns op generation); a minimal spec keeps construction cheap.
        WorkloadSpec unused;
        unused.key_count = 1;
        unused.value_bytes = 1;
        auto conn = std::make_shared<RetryClient>(
            sim, cluster.costs(), hosts[static_cast<std::size_t>(i / cph)],
            1'000'000 + static_cast<std::uint64_t>(i),
            Generator(unused, sim.fork_rng()), opts.policy, targets, dial,
            /*history=*/nullptr);
        if (opts.trace_stages) {
            conn->set_tracer(&tracer, "ycsb/" + std::to_string(i));
        }
        driver->conns.push_back(std::move(conn));
        driver->idle.push_back(static_cast<std::size_t>(i));
    }

    driver->measure_begin = sim.now() + opts.warmup;
    driver->measure_end = driver->measure_begin + opts.measure;
    driver->schedule_next_arrival();

    sim.run_until(driver->measure_begin);
    const double busy_before =
        static_cast<double>(cluster.master().node().core->total_busy().ns());
    StageWindow stage_window;
    stage_window.begin(tracer);

    sim.run_until(driver->measure_end);
    const double busy_after =
        static_cast<double>(cluster.master().node().core->total_busy().ns());
    StageBreakdown stages;
    if (opts.trace_stages) stage_window.finish(tracer, &stages);

    // Drain: no new arrivals; for up to 8 s let queued/in-flight window ops
    // finish (their latency belongs to the window they arrived in). The
    // retry machinery's op deadlines bound each op, the cap bounds the loop.
    const sim::SimTime drain_stop = driver->measure_end + sim::seconds(8);
    while (sim.now() < drain_stop && !driver->drained()) {
        sim.run_until(sim.now() + sim::milliseconds(10));
    }

    OpenLoopResult res;
    res.run.ops = driver->completed;
    res.run.errors = driver->failed + driver->timed_out;
    finalize_latency(res.run, driver->merged, opts.measure);
    res.run.master_cpu_util =
        (busy_after - busy_before) / static_cast<double>(opts.measure.ns());
    driver->timeline.fill(res.run);
    if (opts.trace_stages) res.run.stages = stages;

    res.offered_kops = opts.offered_kops;
    res.achieved_kops = res.run.throughput_kops;
    res.arrivals = driver->arrivals_recorded;
    res.completed = driver->completed;
    res.failed = driver->failed;
    res.timed_out = driver->timed_out;
    res.peak_queued = driver->peak_queued;
    for (const auto& c : driver->conns) res.retries += c->retries();
    for (int t = 0; t < YcsbOp::kKindCount; ++t) {
        const auto& h = driver->per_type[static_cast<std::size_t>(t)];
        auto& s = res.per_type[static_cast<std::size_t>(t)];
        s.ops = h.count();
        if (h.count() == 0) continue;
        s.mean_us = h.mean_us();
        s.p50_us = static_cast<double>(h.p50_ns()) / 1e3;
        s.p95_us = static_cast<double>(h.quantile_ns(0.95)) / 1e3;
        s.p99_us = static_cast<double>(h.p99_ns()) / 1e3;
        s.p999_us = static_cast<double>(h.p999_ns()) / 1e3;
    }
    return res;
}

} // namespace skv::workload::ycsb
