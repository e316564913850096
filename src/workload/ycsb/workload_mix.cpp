#include "workload/ycsb/workload_mix.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace skv::workload::ycsb {

const char* to_string(Workload w) {
    switch (w) {
    case Workload::kA: return "A";
    case Workload::kB: return "B";
    case Workload::kC: return "C";
    case Workload::kD: return "D";
    case Workload::kE: return "E";
    case Workload::kF: return "F";
    }
    SKV_UNREACHABLE("bad Workload");
}

bool workload_from_char(char c, Workload* out) {
    if (c >= 'a' && c <= 'f') c = static_cast<char>(c - 'a' + 'A');
    if (c < 'A' || c > 'F') return false;
    *out = static_cast<Workload>(c - 'A');
    return true;
}

OpMix standard_mix(Workload w) {
    OpMix m;
    switch (w) {
    case Workload::kA: m.read = 0.50; m.update = 0.50; break;
    case Workload::kB: m.read = 0.95; m.update = 0.05; break;
    case Workload::kC: m.read = 1.00; break;
    case Workload::kD: m.read = 0.95; m.insert = 0.05; break;
    case Workload::kE: m.scan = 0.95; m.insert = 0.05; break;
    case Workload::kF: m.read = 0.50; m.rmw = 0.50; break;
    }
    return m;
}

KeyDist standard_dist(Workload w) {
    switch (w) {
    case Workload::kA:
    case Workload::kB:
    case Workload::kC:
    case Workload::kF: return KeyDist::kZipfian;
    case Workload::kD: return KeyDist::kLatest;
    case Workload::kE: return KeyDist::kScan;
    }
    SKV_UNREACHABLE("bad Workload");
}

YcsbOptions YcsbOptions::standard(Workload w) {
    YcsbOptions o;
    o.workload = w;
    return o;
}

const char* to_string(YcsbOp::Kind t) {
    switch (t) {
    case YcsbOp::Kind::kRead: return "read";
    case YcsbOp::Kind::kUpdate: return "update";
    case YcsbOp::Kind::kInsert: return "insert";
    case YcsbOp::Kind::kScan: return "scan";
    case YcsbOp::Kind::kRmw: return "rmw";
    }
    SKV_UNREACHABLE("bad YcsbOp::Kind");
}

namespace {
/// Scan lengths are uniform in [1, kScanLenMax] (workload E), clamped at
/// the frontier.
constexpr std::uint64_t kScanLenMax = 16;

WorkloadSpec spec_from(const YcsbOptions& o) {
    WorkloadSpec s;
    s.key_count = o.record_count;
    s.key_dist = standard_dist(o.workload);
    s.value_bytes = o.value_bytes;
    s.key_prefix = YcsbOptions::key_prefix;
    return s;
}
} // namespace

MixGenerator::MixGenerator(YcsbOptions opts, sim::Rng rng,
                           std::shared_ptr<KeyFrontier> frontier)
    : opts_(std::move(opts)), mix_(standard_mix(opts_.workload)), rng_(rng),
      gen_(spec_from(opts_), rng_.fork()), frontier_(std::move(frontier)) {
    SKV_CHECK(frontier_ != nullptr);
    SKV_CHECK(frontier_->size() >= opts_.record_count);
    gen_.set_frontier(frontier_);
}

YcsbOp MixGenerator::next() {
    YcsbOp op;
    const double u = rng_.next_double();
    double edge = mix_.read;
    if (u < edge) {
        op.kind = YcsbOp::Kind::kRead;
        op.key = gen_.next_key();
        return op;
    }
    edge += mix_.update;
    if (u < edge) {
        op.kind = YcsbOp::Kind::kUpdate;
        op.key = gen_.next_key();
        op.value = gen_.make_value();
        return op;
    }
    edge += mix_.insert;
    if (u < edge) {
        // The insert claims its key id at generation time: every chooser
        // sharing the frontier immediately sees the grown keyspace, matching
        // YCSB's transactionInsertKeySequence.
        op.kind = YcsbOp::Kind::kInsert;
        op.key = gen_.key_name(frontier_->acquire_insert());
        op.value = gen_.make_value();
        return op;
    }
    edge += mix_.scan;
    if (u < edge) {
        op.kind = YcsbOp::Kind::kScan;
        const std::uint64_t start = gen_.next_key_index();
        const std::uint64_t want = 1 + rng_.next_below(kScanLenMax);
        const std::uint64_t len =
            std::min<std::uint64_t>(want, frontier_->size() - start);
        op.key = gen_.key_name(start);
        op.scan_keys.reserve(static_cast<std::size_t>(len));
        for (std::uint64_t i = 0; i < len; ++i) {
            op.scan_keys.push_back(gen_.key_name(start + i));
        }
        return op;
    }
    op.kind = YcsbOp::Kind::kRmw;
    op.key = gen_.next_key();
    op.value = gen_.make_value();
    return op;
}

} // namespace skv::workload::ycsb
