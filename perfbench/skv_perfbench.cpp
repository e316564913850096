// skv_perfbench: the repository benchmark. It measures the simulator's own
// speed (wall clock) and the modeled cluster's latency and throughput on the
// workloads named in BENCHMARK.json; perfbench/NOTES.md says why each
// workload exists and which layer metric should move which end-to-end one.
//
// One process, no threads of its own. A run repeats the whole workload
// (set-up, drive, verify) until --seconds of wall time have passed. Wall
// metrics are medians over the repetitions. The headline speed metric,
// ops_per_ref_s, divides wall time by the wall time of a fixed reference
// kernel run next to the drive, which takes out the shared host's drifting
// speed; ops_per_wall_s is the raw figure. Modeled metrics are a pure
// function of the seed, so every repetition must reproduce them exactly;
// the correctness gate checks that. Each layer is measured from outside:
// the benchmark times its own calls into public entry points and reads
// public counters between phases.
//
// With --trace 1 every second repetition runs with the span tracer on; the
// per-layer metrics come from those, and obs.trace_overhead_frac compares
// their wall time with the untraced ones. --trace-out writes the
// benchmark's own wall-clock spans (setup, preload, drive, check, reference,
// per seed) as chrome-trace JSON.
//
// Usage: skv_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--trace-out <file.json>]
// The last stdout line is one JSON object with every metric measured;
// perfbench/run.py selects the ones BENCHMARK.json lists. Exit status 1
// means a correctness check failed, 2 a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "net/fault.hpp"
#include "obs/tracer.hpp"
#include "sim/histogram.hpp"
#include "sim/rng.hpp"
#include "skv/cluster.hpp"
#include "workload/generator.hpp"
#include "workload/retry_client.hpp"
#include "workload/runner.hpp"
#include "workload/ycsb/open_loop.hpp"

using namespace skv;

namespace {

using Clock = std::chrono::steady_clock;
using server::ReplicationMode;

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Host speed

/// splitmix64; the reference kernel's own generator, so that nothing in
/// src/ can change what the kernel does.
std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The reference kernel: a fixed slice of the work a discrete-event
/// simulator does (a heap of timestamps, a hash map of short strings, small
/// allocations) on fixed inputs. Its code and inputs never change, so its
/// wall time tracks only how fast the host runs this kind of code at that
/// moment. On a shared host that speed drifts by tens of percent within
/// minutes, with the simulator's speed following it.
std::uint64_t reference_kernel() {
    constexpr int kIterations = 100'000;
    constexpr std::uint64_t kKeys = 200'000;
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::unordered_map<std::uint64_t, std::string> map;
    std::uint64_t state = 0x5eed;
    std::uint64_t acc = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::uint64_t k = splitmix(state);
        heap.push({k, static_cast<std::uint32_t>(i)});
        if (heap.size() > 50'000) {
            acc += heap.top().first;
            heap.pop();
        }
        map[k % kKeys].assign(16 + (k >> 60), 'x');
        const auto it = map.find(splitmix(state) % kKeys);
        if (it != map.end()) acc += it->second.size();
        if (i % 8 == 0) map.erase(splitmix(state) % kKeys);
    }
    return acc;
}

/// One reference second is the wall time of this many reference-kernel runs
/// (0.6-1.1 s on a shared 4-core Xeon, depending on its load).
constexpr double kRefRunsPerRefSecond = 10.0;

// ---------------------------------------------------------------------------
// Benchmark-side spans

/// Wall-clock spans around the benchmark's calls into the simulator. Kept
/// in memory and written as chrome-trace JSON after the run.
class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// Run `fn` inside a span named `name` (`args`: the body of a JSON
    /// object, may be empty) and return its wall seconds.
    template <typename Fn>
    double time(const char* name, std::string args, Fn&& fn) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        if (enabled_) {
            spans_.push_back({name, std::move(args), us(t0), us(t1) - us(t0)});
        }
        return std::chrono::duration<double>(t1 - t0).count();
    }

    bool write(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) return false;
        std::fputs("{\"traceEvents\":[", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                         i == 0 ? "" : ",", s.name.c_str(), s.ts_us, s.dur_us,
                         s.args.c_str());
        }
        std::fputs("\n]}\n", f);
        return std::fclose(f) == 0;
    }

private:
    struct Span {
        std::string name;
        std::string args;
        double ts_us;
        double dur_us;
    };

    [[nodiscard]] double us(Clock::time_point t) const {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Layer counters

/// Every layer's public counters at one instant; a phase's work is the
/// difference of two readings.
struct Counters {
    std::int64_t sim_ns = 0;              // sim: simulated clock
    std::uint64_t events = 0;             // sim: events executed
    std::uint64_t msgs = 0;               // net: fabric messages sent
    std::uint64_t bytes = 0;              // net: fabric bytes sent
    std::uint64_t fault_drops = 0;        // net: messages the injector dropped
    std::uint64_t wr_posts = 0;           // rdma: work requests posted
    std::int64_t master_busy_ns = 0;      // cpu: master core busy time
    std::vector<std::int64_t> nic_busy_ns; // cpu: each SmartNIC ARM core
    std::uint64_t commands = 0;           // server: client commands, all nodes
    std::uint64_t master_writes = 0;      // server: write commands, master
    std::uint64_t retransmits = 0;        // server: reliable-link retransmits
    std::uint64_t fanout_sends = 0;       // skv: Nic-KV replication sends
    std::uint64_t failures_detected = 0;  // skv: failure-detector verdicts
    std::uint64_t failovers = 0;          // skv: slave promotions

    static Counters read(offload::Cluster& c) {
        Counters k;
        k.sim_ns = c.sim().now().ns();
        k.events = c.sim().events_executed();
        k.msgs = c.fabric().messages_sent();
        k.bytes = c.fabric().bytes_sent();
        k.fault_drops = c.fabric().obs().counter("fault_drops");
        k.wr_posts = c.rdma().obs().counter("wr_posts");
        k.master_busy_ns = c.master().node().core->total_busy().ns();
        if (nic::SmartNic* nic = c.smartnic()) {
            for (int i = 0; i < nic->core_count(); ++i) {
                k.nic_busy_ns.push_back(nic->core(i).total_busy().ns());
            }
        }
        const auto add_server = [&k](server::KvServer& s) {
            k.commands += s.commands_processed();
            k.retransmits += s.stats().counter("rel.retransmits");
        };
        add_server(c.master());
        for (int i = 0; i < c.slave_count(); ++i) add_server(c.slave(i));
        k.master_writes = c.master().stats().counter("writes");
        if (offload::NicKv* nk = c.nic_kv()) {
            k.retransmits += nk->stats().counter("rel.retransmits");
            k.fanout_sends = nk->stats().counter("fanout_sends");
            k.failures_detected = nk->stats().counter("failures_detected");
            k.failovers = nk->stats().counter("failovers");
        }
        return k;
    }

    /// Add the work done between two readings of one cluster.
    void add_delta(const Counters& before, const Counters& after) {
        sim_ns += after.sim_ns - before.sim_ns;
        events += after.events - before.events;
        msgs += after.msgs - before.msgs;
        bytes += after.bytes - before.bytes;
        fault_drops += after.fault_drops - before.fault_drops;
        wr_posts += after.wr_posts - before.wr_posts;
        master_busy_ns += after.master_busy_ns - before.master_busy_ns;
        nic_busy_ns.resize(after.nic_busy_ns.size(), 0);
        for (std::size_t i = 0; i < after.nic_busy_ns.size(); ++i) {
            nic_busy_ns[i] += after.nic_busy_ns[i] - before.nic_busy_ns[i];
        }
        commands += after.commands - before.commands;
        master_writes += after.master_writes - before.master_writes;
        retransmits += after.retransmits - before.retransmits;
        fanout_sends += after.fanout_sends - before.fanout_sends;
        failures_detected += after.failures_detected - before.failures_detected;
        failovers += after.failovers - before.failovers;
    }
};

/// The span-tracer stages reported per layer, with their metric names. The
/// first is the client end-to-end latency the critical-path three tile.
constexpr std::array<std::pair<obs::Stage, const char*>, 6> kStages = {{
    {obs::Stage::kClientE2e, "obs.stage.client_e2e_us"},
    {obs::Stage::kRdmaWrite, "obs.stage.rdma_write_us"},
    {obs::Stage::kMasterApply, "obs.stage.master_apply_us"},
    {obs::Stage::kReply, "obs.stage.reply_us"},
    {obs::Stage::kOffloadRequest, "obs.stage.offload_request_us"},
    {obs::Stage::kNicFanout, "obs.stage.nic_fanout_us"},
}};

// ---------------------------------------------------------------------------
// One repetition

struct Rep {
    bool traced = false;
    // Wall seconds per phase.
    double setup_s = 0;    // cluster build + start() + keyspace preload
    double preload_s = 0;  // the preload part of setup_s
    double drive_s = 0;    // simulating the client workload
    double check_s = 0;    // verifying the outputs
    double ref_s = 0;      // one reference-kernel run, mean of those around the drives
    // Modeled results: a pure function of the seed.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; // failed + timed out
    double p50_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    double kops = 0;
    std::uint64_t digest = 0;
    std::uint64_t preload_inserts = 0;
    std::uint64_t retries = 0;
    std::uint64_t peak_queued = 0;
    std::uint64_t check_nodes = 0;
    std::uint64_t check_keys = 0;
    std::uint64_t check_fast_keys = 0;
    Counters work; // drive-phase deltas, summed over chaos seeds
    std::array<obs::StageAccum, kStages.size()> stages{};
    std::vector<std::string> errors; // failed correctness checks

    void add_stages(const obs::Tracer& t) {
        for (std::size_t i = 0; i < kStages.size(); ++i) {
            stages[i].sum_ns += t.stage_accum(kStages[i].first).sum_ns;
            stages[i].count += t.stage_accum(kStages[i].first).count;
        }
    }

    /// Everything modeled, as text. Repetitions of one seed, traced or not,
    /// must produce the same string: the tracer only observes.
    [[nodiscard]] std::string modeled() const {
        char buf[640];
        std::snprintf(
            buf, sizeof(buf),
            "digest=%016llx attempted=%llu failed=%llu p50_us=%.3f "
            "p99_us=%.3f p999_us=%.3f kops=%.6f events=%llu msgs=%llu "
            "bytes=%llu wr_posts=%llu master_busy_ns=%lld commands=%llu "
            "retransmits=%llu fanout_sends=%llu failovers=%llu retries=%llu "
            "peak_queued=%llu check_nodes=%llu",
            static_cast<unsigned long long>(digest),
            static_cast<unsigned long long>(attempted),
            static_cast<unsigned long long>(failed), p50_us, p99_us, p999_us,
            kops, static_cast<unsigned long long>(work.events),
            static_cast<unsigned long long>(work.msgs),
            static_cast<unsigned long long>(work.bytes),
            static_cast<unsigned long long>(work.wr_posts),
            static_cast<long long>(work.master_busy_ns),
            static_cast<unsigned long long>(work.commands),
            static_cast<unsigned long long>(work.retransmits),
            static_cast<unsigned long long>(work.fanout_sends),
            static_cast<unsigned long long>(work.failovers),
            static_cast<unsigned long long>(retries),
            static_cast<unsigned long long>(peak_queued),
            static_cast<unsigned long long>(check_nodes));
        return buf;
    }
};

/// State that outlives one repetition.
struct Context {
    SpanLog log;
    /// Peak-RSS growth over the process's first keyspace preload, and how
    /// many records × nodes it inserted. Later preloads reuse heap the
    /// first one grew, so only the first is measured.
    double preload_rss_mb = -1;
    std::uint64_t preload_rss_inserts = 0;
    /// Peak RSS at the end of the first set-up (its preload ends it).
    double setup_peak_rss_mb = 0;
    /// The reference kernel's result, printed so its work is kept.
    std::uint64_t reference_result = 0;

    /// Wall seconds of one reference-kernel run, now.
    double time_reference() {
        return log.time("reference", "",
                        [&] { reference_result = reference_kernel(); });
    }
};

/// workload::preload_keyspace, timed and counted into `r`.
double preload(Context& ctx, offload::Cluster& c,
               const workload::WorkloadSpec& spec, Rep& r) {
    const double rss0 = peak_rss_mb();
    const double s = ctx.log.time("preload", "",
                                  [&] { workload::preload_keyspace(c, spec); });
    const std::uint64_t inserts =
        spec.key_count * static_cast<std::uint64_t>(1 + c.slave_count());
    if (ctx.preload_rss_mb < 0) {
        ctx.setup_peak_rss_mb = peak_rss_mb();
        ctx.preload_rss_mb = ctx.setup_peak_rss_mb - rss0;
        ctx.preload_rss_inserts = inserts;
    }
    r.preload_s += s;
    r.preload_inserts += inserts;
    return s;
}

// ---------------------------------------------------------------------------
// YCSB workloads (open loop)

struct YcsbProfile {
    workload::ycsb::Workload mix;
    std::uint64_t records;
    std::size_t value_bytes;
    double offered_kops;
    int connections;
    sim::Duration warmup;
    sim::Duration measure;
};

/// bench/bench_ycsb.cpp's cluster: SKV fan-out over 3 slaves, commit gating
/// on one replica ack, no stale replica reads. Kept identical so the
/// reference profile reproduces BENCH_ycsb.json.
std::unique_ptr<offload::Cluster> make_ycsb_cluster(std::uint64_t seed) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = 3;
    cfg.offload = true;
    cfg.server_tmpl.ack_interval = sim::milliseconds(20);
    cfg.server_tmpl.ack_on_apply = true;
    cfg.server_tmpl.wait_for_slaves = 1;
    cfg.server_tmpl.wait_timeout = sim::milliseconds(150);
    cfg.server_tmpl.serve_stale_reads = false;
    cfg.server_tmpl.replication_mode = ReplicationMode::kFanout;
    return std::make_unique<offload::Cluster>(cfg);
}

Rep run_ycsb(Context& ctx, const YcsbProfile& p, std::uint64_t seed,
             bool traced) {
    Rep r;
    r.traced = traced;
    workload::ycsb::OpenLoopOptions opts;
    opts.ycsb = workload::ycsb::YcsbOptions::standard(p.mix);
    opts.ycsb.record_count = p.records;
    opts.ycsb.value_bytes = p.value_bytes;
    opts.connections = p.connections;
    opts.offered_kops = p.offered_kops;
    opts.warmup = p.warmup;
    opts.measure = p.measure;
    opts.preload = false; // done (and timed) below, exactly as it would be
    opts.trace_stages = traced;

    std::unique_ptr<offload::Cluster> c;
    r.setup_s = ctx.log.time("setup.cluster", "", [&] {
        c = make_ycsb_cluster(seed);
        c->start();
    });
    workload::WorkloadSpec keys;
    keys.key_count = p.records;
    keys.key_dist = workload::KeyDist::kUniform;
    keys.value_bytes = p.value_bytes;
    keys.key_prefix = opts.ycsb.key_prefix;
    r.setup_s += preload(ctx, *c, keys, r);

    // Reference runs before the drive, between drive and check, and after
    // the check: they sample the host's speed around the timed work.
    double ref_sum = ctx.time_reference();
    const Counters before = Counters::read(*c);
    workload::ycsb::OpenLoopResult res;
    r.drive_s = ctx.log.time("drive", "", [&] {
        res = workload::ycsb::run_open_loop(*c, opts);
        // Replication trails the last reply; let it finish (bounded) so the
        // check sees the whole stream applied.
        const sim::SimTime stop = c->sim().now() + sim::seconds(1);
        while (!c->converged() && c->sim().now() < stop) {
            c->sim().run_until(c->sim().now() + sim::milliseconds(1));
        }
    });
    r.work.add_delta(before, Counters::read(*c));
    r.add_stages(c->tracer());
    ref_sum += ctx.time_reference();

    r.check_s = ctx.log.time("check", "", [&] {
        // OpenLoopResult::completed counts every finished arrival, failed
        // and timed-out ones included.
        if (res.arrivals != res.completed) {
            r.errors.push_back("arrivals " + std::to_string(res.arrivals) +
                               " != completed " + std::to_string(res.completed));
        }
        if (!c->converged()) r.errors.push_back("replicas not converged");
        for (int s = 0; s < c->slave_count(); ++s) {
            if (!c->master().db().equals(c->slave(s).db())) {
                r.errors.push_back("slave" + std::to_string(s) +
                                   " keyspace differs from the master");
            }
        }
    });
    r.ref_s = (ref_sum + ctx.time_reference()) / 3.0;

    r.attempted = res.arrivals;
    r.failed = res.failed + res.timed_out;
    r.p50_us = res.run.p50_us;
    r.p99_us = res.run.p99_us;
    r.p999_us = res.run.p999_us;
    r.kops = res.achieved_kops;
    r.retries = res.retries;
    r.peak_queued = res.peak_queued;
    r.digest = c->sim().trace_digest();
    ctx.log.time("teardown", "", [&] { c.reset(); });
    return r;
}

// ---------------------------------------------------------------------------
// Chaos sweep (closed-loop retrying clients under faults, checked)

struct ChaosProfile {
    int seeds = 60;
    int clients = 8;
    std::uint64_t ops_per_client = 200;
    std::uint64_t keys = 8;
    double write_ratio = 0.5;
    /// Untouched background keyspace, so resyncs after a crash move data.
    std::uint64_t background_records = 1000;
};

constexpr std::array<ReplicationMode, 3> kChaosModes = {
    ReplicationMode::kFanout, ReplicationMode::kChain, ReplicationMode::kQuorum};

/// The crash-chaos cluster of tests/chaos_support.hpp: a fast failure
/// detector (failover well inside client deadlines), immediate apply acks,
/// commit gating on one replica and no stale replica reads.
std::unique_ptr<offload::Cluster> make_chaos_cluster(std::uint64_t seed,
                                                     ReplicationMode mode) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = 3;
    cfg.offload = true;
    cfg.nic_cfg.probe_interval = sim::milliseconds(200);
    cfg.nic_cfg.waiting_time = sim::milliseconds(450);
    cfg.server_tmpl.ack_interval = sim::milliseconds(20);
    cfg.server_tmpl.ack_on_apply = true;
    cfg.server_tmpl.wait_for_slaves = 1;
    cfg.server_tmpl.wait_timeout = sim::milliseconds(150);
    cfg.server_tmpl.serve_stale_reads = false;
    cfg.server_tmpl.probe_silence_timeout = sim::seconds(1);
    cfg.server_tmpl.replication_mode = mode;
    return std::make_unique<offload::Cluster>(cfg);
}

/// Drop 1%, duplicate 2% and delay 20% of messages on every replication
/// path: NIC <-> slave, master <-> slave and slave <-> slave (chain hops).
/// Client links stay clean.
void fault_replication_links(offload::Cluster& c) {
    net::FaultSpec spec;
    spec.drop_prob = 0.01;
    spec.dup_prob = 0.02;
    spec.jitter_prob = 0.2;
    spec.jitter_mean = sim::microseconds(200);
    auto& faults = c.fabric().faults();
    for (int i = 0; i < c.slave_count(); ++i) {
        const auto si = c.slave(i).node().ep;
        faults.set_link(c.nic_kv()->endpoint(), si, spec);
        faults.set_link(c.master().node().ep, si, spec);
        for (int j = i + 1; j < c.slave_count(); ++j) {
            faults.set_link(si, c.slave(j).node().ep, spec);
        }
    }
}

/// A warm crash/restart storm: the master, a random slave, then the master
/// again, at seeded 500-900 ms gaps, each down 400 ms (shorter than failure
/// detection, so no failover). Each master crash stalls one op of every
/// client for the whole downtime; three crashes keep those stalled ops
/// under 1% of all ops, so p99 stays clear of the cliff between modes.
void schedule_storm(offload::Cluster& c) {
    sim::Rng rng = c.sim().fork_rng();
    const int slave = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(c.slave_count())));
    sim::SimTime t = c.sim().now();
    for (const int victim : {-1, slave, -1}) { // -1 = master
        t = t + sim::milliseconds(rng.next_range(500, 900));
        c.sim().at(t, [&c, victim] { c.crash_node(victim); });
        c.sim().at(t + sim::milliseconds(400),
                   [&c, victim] { c.restart_node(victim); });
    }
}

void run_chaos_seed(Context& ctx, const ChaosProfile& p, std::uint64_t seed,
                    ReplicationMode mode, bool traced, Rep& r,
                    sim::LatencyHistogram& latency) {
    std::unique_ptr<offload::Cluster> c;
    r.setup_s += ctx.log.time("setup.cluster", "", [&] {
        c = make_chaos_cluster(seed, mode);
        c->start();
        fault_replication_links(*c);
    });
    workload::WorkloadSpec background;
    background.key_count = p.background_records;
    background.key_prefix = "bg:";
    r.setup_s += preload(ctx, *c, background, r);
    if (traced) c->tracer().set_enabled(true);

    check::History history;
    std::vector<std::shared_ptr<workload::RetryClient>> clients;
    const std::uint64_t issued =
        static_cast<std::uint64_t>(p.clients) * p.ops_per_client;
    bool drained = false;
    const Counters before = Counters::read(*c);
    r.drive_s += ctx.log.time("drive", "", [&] {
        offload::Cluster* cp = c.get();
        std::vector<workload::RetryClient::Target> targets;
        targets.push_back({cp->master().node().ep, cp->master().config().port});
        for (int i = 0; i < cp->slave_count(); ++i) {
            targets.push_back(
                {cp->slave(i).node().ep, cp->slave(i).config().port});
        }
        auto dial = [cp](net::NodeRef from, workload::RetryClient::Target t,
                         std::function<void(net::ChannelPtr)> cb) {
            cp->cm().connect(from, t.ep, t.port, std::move(cb));
        };
        workload::RetryPolicy pol;
        pol.attempt_timeout = sim::milliseconds(120);
        pol.op_deadline = sim::seconds(8);
        pol.turnaround = sim::milliseconds(25); // overlap the crash storm
        for (int i = 0; i < p.clients; ++i) {
            workload::WorkloadSpec spec;
            spec.set_ratio = p.write_ratio;
            spec.key_count = p.keys;
            spec.value_bytes = 16;
            spec.key_prefix = "ck:";
            workload::Generator gen(spec, cp->sim().fork_rng());
            const std::string name = "rc" + std::to_string(i);
            auto cl = std::make_shared<workload::RetryClient>(
                cp->sim(), cp->costs(), cp->add_client_host(name),
                100 + static_cast<std::uint64_t>(i), std::move(gen), pol,
                targets, dial, &history);
            if (traced) cl->set_tracer(&cp->tracer(), name);
            clients.push_back(std::move(cl));
        }
        for (auto& cl : clients) cl->start(p.ops_per_client);

        // Chain seeds run without crashes: a crash/restart stalls chain
        // writes for tens of simulated seconds in some seeds (about half
        // of them after a slave restart, a few after a master restart),
        // and how many seeds hit that would decide the sweep's tail.
        if (mode != ReplicationMode::kChain) schedule_storm(*cp);

        const auto all_idle = [&clients] {
            return std::all_of(clients.begin(), clients.end(),
                               [](const auto& cl) { return cl->idle(); });
        };
        const sim::SimTime stop = cp->sim().now() + sim::seconds(120);
        while (!all_idle() && cp->sim().now() < stop) {
            cp->sim().run_until(cp->sim().now() + sim::milliseconds(20));
        }
        drained = all_idle();
    });
    r.work.add_delta(before, Counters::read(*c));
    r.add_stages(c->tracer());

    const std::string tag = "seed " + std::to_string(seed) + " (" +
                            server::to_string(mode) + "): ";
    r.check_s += ctx.log.time("check", "", [&] {
        if (!drained) r.errors.push_back(tag + "a client never drained");
        if (history.size() != issued) {
            r.errors.push_back(tag + "history holds " +
                               std::to_string(history.size()) + " of " +
                               std::to_string(issued) + " ops");
        }
        const check::CheckResult res = check::check_history(history);
        if (!res.linearizable) {
            r.errors.push_back(tag + "not linearizable: " + res.reason);
        }
        if (res.budget_exhausted) {
            r.errors.push_back(tag + "checker budget exhausted on key '" +
                               res.offending_key + "'");
        }
        r.check_nodes += res.nodes_explored;
        r.check_keys += res.keys_checked;
        r.check_fast_keys += res.keys_fast_path;
    });

    r.attempted += issued;
    for (const check::Op& op : history.ops()) {
        latency.record_ns(op.complete_ns - op.invoke_ns);
        if (op.outcome != check::Outcome::kOk) ++r.failed;
    }
    for (const auto& cl : clients) r.retries += cl->retries();
    r.digest = (r.digest ^ c->sim().trace_digest()) * 0x100000001b3ULL;
    ctx.log.time("teardown", "", [&] {
        clients.clear();
        c.reset();
    });
}

Rep run_chaos(Context& ctx, const ChaosProfile& p, std::uint64_t seed,
              bool traced) {
    Rep r;
    r.traced = traced;
    r.digest = 0xcbf29ce484222325ULL;
    sim::Rng seeds(seed);
    sim::LatencyHistogram latency;
    // A reference run before every tenth seed and after the last one, so
    // that they sample the host's speed across the whole sweep.
    std::vector<double> ref;
    for (int i = 0; i < p.seeds; ++i) {
        if (i % 10 == 0) ref.push_back(ctx.time_reference());
        const std::uint64_t s = seeds.next_u64();
        const ReplicationMode mode =
            kChaosModes[static_cast<std::size_t>(i) % kChaosModes.size()];
        const std::string args = "\"seed\":" + std::to_string(s) +
                                 ",\"protocol\":\"" + server::to_string(mode) +
                                 "\"";
        ctx.log.time("seed", args, [&] {
            run_chaos_seed(ctx, p, s, mode, traced, r, latency);
        });
    }
    ref.push_back(ctx.time_reference());
    r.ref_s = std::accumulate(ref.begin(), ref.end(), 0.0) /
              static_cast<double>(ref.size());
    r.p50_us = static_cast<double>(latency.p50_ns()) / 1e3;
    r.p99_us = static_cast<double>(latency.p99_ns()) / 1e3;
    r.p999_us = static_cast<double>(latency.p999_ns()) / 1e3;
    r.kops = ratio(static_cast<double>(r.attempted),
                   static_cast<double>(r.work.sim_ns) / 1e9) / 1e3;
    return r;
}

// ---------------------------------------------------------------------------
// Workload table

struct WorkloadDef {
    const char* name;
    std::function<Rep(Context&, std::uint64_t seed, bool traced)> run;
    std::string input; // the input size every result is measured at
};

std::string ycsb_input(const YcsbProfile& p) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "records=%llu value_bytes=%zu nodes=4 offered_kops=%.1f "
                  "connections=%d warmup_ms=%.0f measure_ms=%.0f seeds=1",
                  static_cast<unsigned long long>(p.records), p.value_bytes,
                  p.offered_kops, p.connections, p.warmup.ms(), p.measure.ms());
    return buf;
}

std::vector<WorkloadDef> workloads() {
    using workload::ycsb::Workload;
    // Update-heavy zipfian over a cache-resident keyspace at about half the
    // master's modeled saturation: the write-replication path with the most
    // events and messages per op, where master queueing shows in p99.
    const YcsbProfile a_fanout{Workload::kA, 10'000, 64, 120.0, 256,
                               sim::milliseconds(100), sim::milliseconds(600)};
    // Scans (MGET of 1-16 keys) over a keyspace far larger than the host
    // caches, with replication nearly idle: kv, RESP and payload bytes.
    const YcsbProfile e_large{Workload::kE, 200'000, 128, 40.0, 256,
                              sim::milliseconds(100), sim::milliseconds(1600)};
    // bench_ycsb's full profile; seed 42 must reproduce the ycsb-A/fanout
    // latencies recorded in BENCH_ycsb.json (checked by the self-test).
    const YcsbProfile a_reference{Workload::kA, 10'000, 64, 40.0, 256,
                                  sim::milliseconds(300), sim::seconds(2)};
    const ChaosProfile chaos;
    char chaos_input[256];
    std::snprintf(chaos_input, sizeof(chaos_input),
                  "seeds=%d protocols=fanout,chain,quorum clients=%d "
                  "ops_per_client=%llu keys=%llu write_ratio=%.2f "
                  "background_records=%llu nodes=4 faults=drop1%%,dup2%%,"
                  "jitter20%% storm=master,slave,master(not_chain)",
                  chaos.seeds, chaos.clients,
                  static_cast<unsigned long long>(chaos.ops_per_client),
                  static_cast<unsigned long long>(chaos.keys),
                  chaos.write_ratio,
                  static_cast<unsigned long long>(chaos.background_records));

    const auto ycsb = [](YcsbProfile p) {
        return [p](Context& ctx, std::uint64_t seed, bool traced) {
            return run_ycsb(ctx, p, seed, traced);
        };
    };
    return {
        {"ycsb-a-fanout", ycsb(a_fanout), ycsb_input(a_fanout)},
        {"ycsb-e-large", ycsb(e_large), ycsb_input(e_large)},
        {"chaos-sweep",
         [chaos](Context& ctx, std::uint64_t seed, bool traced) {
             return run_chaos(ctx, chaos, seed, traced);
         },
         chaos_input},
        {"ycsb-a-reference", ycsb(a_reference), ycsb_input(a_reference)},
    };
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/// End-to-end metrics from the untraced repetitions.
std::vector<Metric> end_to_end(const Context& ctx,
                               const std::vector<const Rep*>& reps) {
    const Rep& m = *reps.front();
    std::vector<double> ops_per_s;
    std::vector<double> ops_per_ref_s;
    std::vector<double> ref_s;
    std::vector<double> setup;
    for (const Rep* r : reps) {
        const double per_s =
            static_cast<double>(r->attempted) / (r->drive_s + r->check_s);
        ops_per_s.push_back(per_s);
        ops_per_ref_s.push_back(per_s * r->ref_s * kRefRunsPerRefSecond);
        ref_s.push_back(r->ref_s);
        setup.push_back(r->setup_s);
    }
    return {
        {"ops_per_ref_s", median(ops_per_ref_s), "ops/ref_s"},
        {"ops_per_wall_s", median(ops_per_s), "ops/s"},
        {"host.ref_kernel_s", median(ref_s), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", ctx.setup_peak_rss_mb, "MB"},
        {"model_p50_us", m.p50_us, "us"},
        {"model_p99_us", m.p99_us, "us"},
        {"model_p999_us", m.p999_us, "us"},
        {"model_kops", m.kops, "kops/s"},
        {"failed_frac",
         ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
         "ratio"},
    };
}

/// Per-layer metrics from `reps` (all traced, or all untraced).
/// `drive_rss_mb` is the peak-RSS growth from the end of the first set-up
/// to the end of the first repetition.
std::vector<Metric> per_layer(const Context& ctx,
                              const std::vector<const Rep*>& reps,
                              double drive_rss_mb) {
    const Rep& m = *reps.front();
    const Counters& w = m.work;
    const double ops = static_cast<double>(m.attempted);
    const double sim_ns = static_cast<double>(w.sim_ns);
    std::vector<double> run_s;
    std::vector<double> events_per_s;
    std::vector<double> preload_s;
    std::vector<double> inserts_per_s;
    std::vector<double> check_s;
    for (const Rep* r : reps) {
        run_s.push_back(r->drive_s);
        events_per_s.push_back(static_cast<double>(r->work.events) / r->drive_s);
        preload_s.push_back(r->preload_s);
        inserts_per_s.push_back(
            ratio(static_cast<double>(r->preload_inserts), r->preload_s));
        check_s.push_back(r->check_s);
    }
    const std::int64_t nic_busy_max =
        w.nic_busy_ns.empty()
            ? 0
            : *std::max_element(w.nic_busy_ns.begin(), w.nic_busy_ns.end());
    std::vector<Metric> out = {
        {"sim.events_per_op", ratio(static_cast<double>(w.events), ops), "events/op"},
        {"sim.events_per_wall_s", median(events_per_s), "events/s"},
        {"sim.run_wall_s", median(run_s), "s"},
        {"sim.drive_rss_growth_mb", drive_rss_mb, "MB"},
        {"net.msgs_per_op", ratio(static_cast<double>(w.msgs), ops), "msgs/op"},
        {"net.bytes_per_op", ratio(static_cast<double>(w.bytes), ops), "B/op"},
        {"net.fault_drops", static_cast<double>(w.fault_drops), "count"},
        {"rdma.wr_posts_per_op", ratio(static_cast<double>(w.wr_posts), ops), "wr/op"},
        {"cpu.master_util", ratio(static_cast<double>(w.master_busy_ns), sim_ns), "ratio"},
        {"cpu.master_busy_us_per_op",
         ratio(static_cast<double>(w.master_busy_ns) / 1e3, ops), "us/op"},
        {"cpu.nic_util_max", ratio(static_cast<double>(nic_busy_max), sim_ns), "ratio"},
        {"kv.preload_s", median(preload_s), "s"},
        {"kv.preload_inserts_per_s", median(inserts_per_s), "inserts/s"},
        {"kv.bytes_per_record",
         ratio(ctx.preload_rss_mb * 1024.0 * 1024.0,
               static_cast<double>(ctx.preload_rss_inserts)),
         "B/record"},
        {"server.commands_per_op", ratio(static_cast<double>(w.commands), ops), "cmds/op"},
        {"server.rel_retransmits_per_op",
         ratio(static_cast<double>(w.retransmits), ops), "retransmits/op"},
        {"skv.fanout_sends_per_write",
         ratio(static_cast<double>(w.fanout_sends),
               static_cast<double>(w.master_writes)),
         "sends/write"},
        {"skv.failures_detected", static_cast<double>(w.failures_detected), "count"},
        {"skv.failovers", static_cast<double>(w.failovers), "count"},
        {"workload.retries_per_op", ratio(static_cast<double>(m.retries), ops), "retries/op"},
        {"workload.peak_queued", static_cast<double>(m.peak_queued), "count"},
        {"check.wall_s", median(check_s), "s"},
        {"check.nodes_per_op", ratio(static_cast<double>(m.check_nodes), ops), "nodes/op"},
        {"check.fast_path_ratio",
         ratio(static_cast<double>(m.check_fast_keys),
               static_cast<double>(m.check_keys)),
         "ratio"},
    };
    if (m.traced) {
        for (std::size_t i = 0; i < kStages.size(); ++i) {
            const obs::StageAccum& a = m.stages[i];
            out.push_back({kStages[i].second,
                           ratio(static_cast<double>(a.sum_ns) / 1e3,
                                 static_cast<double>(a.count)),
                           "us"});
        }
    }
    return out;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file.json>]\n",
                 argv0);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    std::string name;
    std::string trace_out;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* flag = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            name = val;
        } else if (std::strcmp(flag, "--seed") == 0) {
            seed = std::strtoull(val, &end, 0);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            seconds = std::strtod(val, &end);
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = std::strcmp(val, "0") == 0 ? 0 : std::strcmp(val, "1") == 0 ? 1 : -1;
        } else if (std::strcmp(flag, "--trace-out") == 0) {
            trace_out = val;
        } else {
            return usage(argv[0]);
        }
        if (end != nullptr && *end != '\0') return usage(argv[0]);
    }
    if (argc % 2 == 0 || name.empty() || seconds < 0 || trace < 0) {
        return usage(argv[0]);
    }
    const std::vector<WorkloadDef> table = workloads();
    const auto wl = std::find_if(table.begin(), table.end(),
                                 [&](const WorkloadDef& w) { return name == w.name; });
    if (wl == table.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return usage(argv[0]);
    }

    Context ctx{SpanLog(!trace_out.empty())};
    std::vector<Rep> reps;
    // Peak RSS as of the first repetition: a pure function of the inputs,
    // where later repetitions add heap fragmentation that depends on how
    // many of them fit in --seconds.
    double first_rep_rss_mb = 0;
    const auto t0 = Clock::now();
    // With tracing, repetitions alternate untraced / traced.
    while (true) {
        const bool traced = trace == 1 && reps.size() % 2 == 1;
        const std::string args = "\"rep\":" + std::to_string(reps.size()) +
                                 ",\"traced\":" + (traced ? "true" : "false");
        ctx.log.time("rep", args, [&] {
            reps.push_back(wl->run(ctx, seed, traced));
        });
        if (reps.size() == 1) first_rep_rss_mb = peak_rss_mb();
        const Rep& r = reps.back();
        std::printf("rep %zu%s: setup_s=%.4f preload_s=%.4f drive_s=%.4f "
                    "check_s=%.4f ref_s=%.4f ops=%llu\n",
                    reps.size() - 1, traced ? " (traced)" : "", r.setup_s,
                    r.preload_s, r.drive_s, r.check_s, r.ref_s,
                    static_cast<unsigned long long>(r.attempted));
        std::fflush(stdout);
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (reps.size() >= (trace == 1 ? 2u : 1u) && elapsed >= seconds) break;
    }

    // Correctness gate: every repetition passed its checks and reproduced
    // the first one's modeled results exactly.
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<const Rep*> untraced;
    std::vector<const Rep*> traced;
    for (const Rep& r : reps) {
        for (const auto& e : r.errors) errors.push_back(e);
        if (r.modeled() != reps.front().modeled()) {
            errors.push_back(std::string("modeled results differ from rep 0") +
                             (r.traced ? " under tracing" : "") + ": " +
                             r.modeled() + " vs " + reps.front().modeled());
        }
        attempted += r.attempted;
        failed += r.failed;
        (r.traced ? traced : untraced).push_back(&r);
    }
    for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

    std::vector<Metric> metrics = end_to_end(ctx, untraced);
    for (const Metric& m : per_layer(ctx, trace == 1 ? traced : untraced,
                                     first_rep_rss_mb - ctx.setup_peak_rss_mb)) {
        metrics.push_back(m);
    }
    if (trace == 1) {
        const auto wall = [](const std::vector<const Rep*>& v) {
            std::vector<double> s;
            for (const Rep* r : v) s.push_back(r->drive_s + r->check_s);
            return median(s);
        };
        metrics.push_back(
            {"obs.trace_overhead_frac", wall(traced) / wall(untraced) - 1.0, "ratio"});
    }

    std::printf("input: workload=%s %s working_set_mb=%.1f "
                "reference_kernel=%llx\n",
                wl->name, wl->input.c_str(), ctx.preload_rss_mb,
                static_cast<unsigned long long>(ctx.reference_result));
    std::printf("fingerprint: workload=%s seed=%llu %s\n", wl->name,
                static_cast<unsigned long long>(seed),
                reps.front().modeled().c_str());
    for (const Metric& m : metrics) {
        std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    if (!trace_out.empty() && !ctx.log.write(trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return errors.empty() ? 0 : 1;
}
