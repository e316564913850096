// YCSB sweep harness: the open-loop driver (src/workload/ycsb/) against the
// SKV cluster, one run per workload x replication-protocol combination.
//
// Open-loop methodology: arrivals follow a seeded Poisson process at the
// offered rate, latency is measured from each op's intended start, so the
// percentiles include queue wait (coordinated-omission-safe). The sweep is
// pinned by seed, so reruns of the same commit are byte-identical, and
// tools/bench_gate/ checks its JSON against BENCH_ycsb.json exactly.
//
// Usage: bench_ycsb [--workloads ABC] [--modes fanout,chain,quorum] [--seed N]

#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "workload/chaos.hpp"
#include "workload/ycsb/open_loop.hpp"

using namespace skv;
using namespace skv::bench;
using workload::ycsb::OpenLoopOptions;
using workload::ycsb::OpenLoopResult;
using workload::ycsb::Workload;
using workload::ycsb::YcsbOp;

namespace {

constexpr std::uint64_t kRecordCount = 10'000;
constexpr double kOfferedKops = 40.0;
constexpr int kConnections = 256;

struct SweepRun {
    std::string series;
    Workload workload = Workload::kA;
    const char* dist = "";
    const char* mode = "";
    OpenLoopResult res;
};

SweepRun run_one(Workload w, server::ReplicationMode mode, std::uint64_t seed) {
    // Commit gating on one replica ack and no stale reads: the
    // configuration under which the three protocols differ on the write path.
    auto cluster = std::make_unique<offload::Cluster>(
        workload::gated_cluster_config(seed, mode));
    cluster->start();

    OpenLoopOptions opts;
    opts.ycsb = workload::ycsb::YcsbOptions::standard(w);
    opts.ycsb.record_count = kRecordCount;
    opts.connections = kConnections;
    opts.offered_kops = kOfferedKops;
    opts.warmup = sim::milliseconds(300);
    opts.measure = sim::seconds(2);

    SweepRun out;
    out.workload = w;
    out.mode = server::to_string(mode);
    switch (opts.ycsb.request_dist) {
    case workload::KeyDist::kUniform: out.dist = "uniform"; break;
    case workload::KeyDist::kZipfian: out.dist = "zipfian"; break;
    case workload::KeyDist::kLatest: out.dist = "latest"; break;
    case workload::KeyDist::kScan: out.dist = "scan"; break;
    }
    out.series = std::string("ycsb-") + workload::ycsb::to_string(w) + "/" +
                 out.dist + "/" + out.mode;
    out.res = run_open_loop(*cluster, opts);

    std::printf("%-28s %s\n", out.series.c_str(), out.res.summary().c_str());
    return out;
}

void print_json(const std::vector<SweepRun>& runs, std::uint64_t seed) {
    FigureJson j("ycsb");
    for (const auto& r : runs) {
        auto& w = j.begin_series(r.series);
        w.kv("workload", workload::ycsb::to_string(r.workload))
            .kv("dist", r.dist)
            .kv("protocol", r.mode)
            // The recorded runs name the sweep's profile; there is one.
            .kv("profile", "full")
            .kv("seed", seed)
            .kv("offered_kops", r.res.offered_kops)
            .kv("achieved_kops", r.res.achieved_kops)
            .kv("connections", kConnections)
            .kv("record_count", kRecordCount)
            .kv("arrivals", r.res.arrivals)
            .kv("completed", r.res.completed)
            .kv("failed", r.res.failed)
            .kv("timed_out", r.res.timed_out)
            .kv("retries", r.res.retries)
            .kv("peak_queued", r.res.peak_queued);
        j.begin_points();
        {
            auto& p = j.point();
            p.kv("op", "all");
            add_run_fields(p, r.res.run);
            j.end_point();
        }
        for (int t = 0; t < YcsbOp::kKindCount; ++t) {
            const auto& s = r.res.per_type[static_cast<std::size_t>(t)];
            if (s.ops == 0) continue;
            auto& p = j.point();
            p.kv("op", to_string(static_cast<YcsbOp::Kind>(t)))
                .kv("ops", s.ops)
                .kv("mean_us", s.mean_us)
                .kv("p50_us", s.p50_us)
                .kv("p95_us", s.p95_us)
                .kv("p99_us", s.p99_us)
                .kv("p999_us", s.p999_us);
            j.end_point();
        }
        j.end_series();
    }
    j.emit();
}

} // namespace

int main(int argc, char** argv) {
    std::string_view workloads = "ABC";
    std::vector<server::ReplicationMode> modes = {
        server::ReplicationMode::kFanout, server::ReplicationMode::kChain,
        server::ReplicationMode::kQuorum};
    std::uint64_t seed = 42;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workloads") == 0 && i + 1 < argc) {
            workloads = argv[++i];
        } else if (std::strcmp(argv[i], "--modes") == 0 && i + 1 < argc) {
            modes.clear();
            const std::string arg = argv[++i];
            std::size_t pos = 0;
            while (pos <= arg.size()) {
                const std::size_t comma = arg.find(',', pos);
                const std::string tok =
                    arg.substr(pos, comma == std::string::npos ? std::string::npos
                                                               : comma - pos);
                if (tok == "fanout") {
                    modes.push_back(server::ReplicationMode::kFanout);
                } else if (tok == "chain") {
                    modes.push_back(server::ReplicationMode::kChain);
                } else if (tok == "quorum") {
                    modes.push_back(server::ReplicationMode::kQuorum);
                } else {
                    std::fprintf(stderr, "unknown mode '%s'\n", tok.c_str());
                    return 2;
                }
                if (comma == std::string::npos) break;
                pos = comma + 1;
            }
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--workloads ABC] "
                         "[--modes fanout,chain,quorum] [--seed N]\n",
                         argv[0]);
            return 2;
        }
    }

    print_header("YCSB open-loop sweep (full)", {"series", "result"});
    std::vector<SweepRun> runs;
    for (const char wc : workloads) {
        Workload w;
        if (!workload::ycsb::workload_from_char(wc, &w)) {
            std::fprintf(stderr, "unknown workload '%c'\n", wc);
            return 2;
        }
        for (const auto mode : modes) {
            runs.push_back(run_one(w, mode, seed));
        }
    }
    print_json(runs, seed);
    return 0;
}
