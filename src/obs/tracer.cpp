#include "obs/tracer.hpp"

namespace skv::obs {

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffU;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

const char* stage_name(Stage s) {
    switch (s) {
    case Stage::kClientE2e: return "client_e2e";
    case Stage::kRdmaWrite: return "rdma_write";
    case Stage::kCqWakeup: return "cq_wakeup";
    case Stage::kMasterApply: return "master_apply";
    case Stage::kReply: return "reply";
    case Stage::kOffloadRequest: return "offload_request";
    case Stage::kNicFanout: return "nic_fanout";
    case Stage::kSlaveAck: return "slave_ack";
    case Stage::kFabricTransfer: return "fabric_transfer";
    case Stage::kCount: break;
    }
    return "unknown";
}

std::uint32_t Tracer::track(const std::string& name) {
    auto it = track_index_.find(name);
    if (it == track_index_.end()) {
        track_names_.push_back(name);
        it = track_index_
                 .emplace(name,
                          static_cast<std::uint32_t>(track_names_.size() - 1))
                 .first;
    }
    return it->second;
}

std::uint64_t Tracer::span_id(std::uint32_t track, Stage stage) {
    std::uint64_t h = fnv_mix(kFnvBasis, sim_.seed());
    h = fnv_mix(h, track);
    h = fnv_mix(h, static_cast<std::uint64_t>(stage));
    h = fnv_mix(h, seq_++);
    return h;
}

void Tracer::push_span(std::uint32_t track, Stage stage, sim::SimTime begin,
                       sim::SimTime end) {
    if (spans_.size() >= kMaxSpans) {
        ++dropped_spans_;
        return;
    }
    spans_.push_back(Span{span_id(track, stage), track, stage, begin, end});
}

void Tracer::accumulate(Stage stage, sim::Duration d) {
    accums_[static_cast<std::size_t>(stage)].sum_ns += d.ns();
    ++accums_[static_cast<std::size_t>(stage)].count;
}

void Tracer::complete(std::uint32_t track, Stage stage, sim::SimTime begin,
                      sim::SimTime end) {
    if (!enabled_) return;
    accumulate(stage, end - begin);
    push_span(track, stage, begin, end);
}

void Tracer::flow_issue(std::uint64_t flow, std::uint32_t client_track) {
    if (!enabled_) return;
    if (flows_.size() >= kMaxFlows && flows_.find(flow) == flows_.end()) return;
    // (Re)arm the flow: a fresh issue invalidates any stale server stamps
    // from an abandoned request on the same connection.
    FlowState& f = flows_[flow];
    f = FlowState{};
    f.issue = sim_.now();
    f.client_track = client_track;
    f.have = 1;
}

void Tracer::flow_server_recv(std::uint64_t flow, std::uint32_t server_track) {
    if (!enabled_) return;
    const auto it = flows_.find(flow);
    if (it == flows_.end() || (it->second.have & 1) == 0) return;
    it->second.recv = sim_.now();
    it->second.server_track = server_track;
    it->second.have |= 2;
}

void Tracer::flow_server_done(std::uint64_t flow) {
    if (!enabled_) return;
    const auto it = flows_.find(flow);
    if (it == flows_.end() || (it->second.have & 2) == 0) return;
    it->second.done = sim_.now();
    it->second.have |= 4;
}

void Tracer::flow_complete(std::uint64_t flow) {
    if (!enabled_) return;
    const auto it = flows_.find(flow);
    if (it == flows_.end()) return;
    const FlowState f = it->second;
    flows_.erase(it);
    const sim::SimTime end = sim_.now();
    if (f.have != 7) return; // partial stamping (e.g. raw shell client)
    if (f.recv.ns() < f.issue.ns() || f.done.ns() < f.recv.ns() ||
        end.ns() < f.done.ns()) {
        return;
    }
    accumulate(Stage::kClientE2e, end - f.issue);
    accumulate(Stage::kRdmaWrite, f.recv - f.issue);
    accumulate(Stage::kMasterApply, f.done - f.recv);
    accumulate(Stage::kReply, end - f.done);
    push_span(f.client_track, Stage::kClientE2e, f.issue, end);
    push_span(f.client_track, Stage::kRdmaWrite, f.issue, f.recv);
    push_span(f.server_track, Stage::kMasterApply, f.recv, f.done);
    push_span(f.client_track, Stage::kReply, f.done, end);
}

void Tracer::repl_propagate(std::int64_t offset, std::int64_t end_offset,
                            std::uint32_t master_track) {
    if (!enabled_) return;
    if (repl_.size() >= kMaxRepl) repl_.erase(repl_.begin()); // oldest offset
    ReplState& r = repl_[offset];
    r = ReplState{};
    r.propagate = sim_.now();
    r.end_offset = end_offset;
    r.master_track = master_track;
}

void Tracer::repl_fanout(std::int64_t offset, std::uint32_t nic_track) {
    if (!enabled_) return;
    const auto it = repl_.find(offset);
    if (it == repl_.end()) return;
    it->second.fanout = sim_.now();
    it->second.nic_track = nic_track;
    it->second.have_fanout = true;
    accumulate(Stage::kOffloadRequest, sim_.now() - it->second.propagate);
    push_span(nic_track, Stage::kOffloadRequest, it->second.propagate,
              sim_.now());
}

void Tracer::repl_slave_apply(std::int64_t offset, std::uint32_t slave_track) {
    if (!enabled_) return;
    const auto it = repl_.find(offset);
    if (it == repl_.end()) return;
    // SKV: measure from the NIC fan-out parse; baseline (no NIC): from the
    // master's propagate. Either way the stage is "repl bytes in flight to
    // this slave".
    const sim::SimTime from =
        it->second.have_fanout ? it->second.fanout : it->second.propagate;
    accumulate(Stage::kNicFanout, sim_.now() - from);
    push_span(slave_track, Stage::kNicFanout, from, sim_.now());
}

void Tracer::repl_ack(std::int64_t cum_offset) {
    if (!enabled_) return;
    // Acks are cumulative: every outstanding propagate fully covered by
    // this ack completes its kSlaveAck span now and is retired.
    auto it = repl_.begin();
    while (it != repl_.end() && it->second.end_offset <= cum_offset) {
        accumulate(Stage::kSlaveAck, sim_.now() - it->second.propagate);
        push_span(it->second.master_track, Stage::kSlaveAck,
                  it->second.propagate, sim_.now());
        it = repl_.erase(it);
    }
}

} // namespace skv::obs
