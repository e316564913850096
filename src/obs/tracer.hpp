#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace skv::obs {

/// Command-lifecycle span taxonomy (DESIGN.md §11). Stages on the critical
/// path (kRdmaWrite, kMasterApply, kReply) tile the client-observed
/// end-to-end latency exactly; replication stages overlap the reply because
/// SKV acknowledges the client before the fan-out completes.
enum class Stage : std::uint8_t {
    kClientE2e = 0,   // client issue -> reply parsed at the client
    kRdmaWrite,       // client issue -> command entry on the master
    kCqWakeup,        // completion-channel fire -> CQ drain task runs
    kMasterApply,     // command entry -> reply handed to the transport
    kReply,           // reply handed to transport -> reply parsed at client
    kOffloadRequest,  // master propagate -> Nic-KV fan-out parse
    kNicFanout,       // Nic-KV fan-out parse -> repl stream applied on a slave
    kSlaveAck,        // master propagate -> first covering slave ack heard
    kFabricTransfer,  // fabric send accepted -> delivery callback fires
    kCount
};

[[nodiscard]] const char* stage_name(Stage s);

/// A completed span. `id` is derived from seeded deterministic state (sim
/// seed, track, stage, per-tracer sequence number folded through FNV-1a) —
/// no wall clock, no global counters, so ids are bit-identical across
/// same-seed runs and the tracer never perturbs the sim::Trace digest.
struct Span {
    std::uint64_t id = 0;
    std::uint32_t track = 0;
    Stage stage = Stage::kClientE2e;
    sim::SimTime begin;
    sim::SimTime end;
};

/// Running (sum, count) per stage. Measurement windows need exact
/// subtractable sums: the workload runner snapshots these at window
/// start/end and the deltas give matched per-request populations for the
/// latency breakdown.
struct StageAccum {
    std::int64_t sum_ns = 0;
    std::uint64_t count = 0;
};

/// Deterministic sim-time span recorder for the SKV request path.
///
/// Determinism contract (asserted by obs_determinism_test): the tracer only
/// *observes* — it never schedules events, never touches an Rng, and never
/// calls sim::Trace::note(), so enabling or disabling it cannot change the
/// trace-digest audit. All internal maps are ordered; exports are
/// byte-identical across same-seed runs.
///
/// Correlation is by id, not by callback plumbing:
///  - request path: every client connection carries a deterministic
///    flow id (net::Channel::flow_id, assigned at pair creation); the
///    client stamps issue/complete, the server stamps recv/done, and a
///    fully-stamped flow contributes one sample to each critical-path
///    stage — the stages tile end-to-end latency exactly.
///  - replication: keyed by the master backlog start offset, which rides
///    in the kReplData/kAck node messages end to end.
class Tracer {
public:
    explicit Tracer(sim::Simulation& sim) : sim_(sim) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Register (or look up) a named track — one chrome-trace row. Assignment
    /// order is sim-event order, which is deterministic.
    std::uint32_t track(const std::string& name);

    /// Record a completed span directly (used for kCqWakeup/kFabricTransfer
    /// where begin/end are both known at one site).
    void complete(std::uint32_t track, Stage stage, sim::SimTime begin,
                  sim::SimTime end);

    // --- per-request flow correlation (critical path) ---
    void flow_issue(std::uint64_t flow, std::uint32_t client_track);
    void flow_server_recv(std::uint64_t flow, std::uint32_t server_track);
    void flow_server_done(std::uint64_t flow);
    void flow_complete(std::uint64_t flow);

    // --- async replication correlation, keyed by backlog start offset ---
    void repl_propagate(std::int64_t offset, std::int64_t end_offset,
                        std::uint32_t master_track);
    void repl_fanout(std::int64_t offset, std::uint32_t nic_track);
    void repl_slave_apply(std::int64_t offset, std::uint32_t slave_track);
    void repl_ack(std::int64_t cum_offset);

    [[nodiscard]] const StageAccum& stage_accum(Stage s) const {
        return accums_[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] const std::vector<std::string>& track_names() const {
        return track_names_;
    }
    [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_spans_; }
    [[nodiscard]] sim::Simulation& sim() { return sim_; }

private:
    struct FlowState {
        sim::SimTime issue;
        sim::SimTime recv;
        sim::SimTime done;
        std::uint32_t client_track = 0;
        std::uint32_t server_track = 0;
        std::uint8_t have = 0; // bit0 issue, bit1 recv, bit2 done
    };

    struct ReplState {
        sim::SimTime propagate;
        sim::SimTime fanout;
        std::int64_t end_offset = 0;
        std::uint32_t master_track = 0;
        std::uint32_t nic_track = 0;
        bool have_fanout = false;
    };

    /// Spans past this many are counted in dropped_spans(), not kept.
    static constexpr std::size_t kMaxSpans = 1 << 16;
    static constexpr std::size_t kMaxFlows = 1 << 16;
    static constexpr std::size_t kMaxRepl = 1 << 13;

    [[nodiscard]] std::uint64_t span_id(std::uint32_t track, Stage stage);
    void push_span(std::uint32_t track, Stage stage, sim::SimTime begin,
                   sim::SimTime end);
    void accumulate(Stage stage, sim::Duration d);

    sim::Simulation& sim_;
    bool enabled_ = false;
    std::uint64_t seq_ = 0;
    std::uint64_t dropped_spans_ = 0;
    std::vector<Span> spans_;
    std::vector<std::string> track_names_;
    std::map<std::string, std::uint32_t> track_index_;
    std::array<StageAccum, static_cast<std::size_t>(Stage::kCount)> accums_{};
    std::map<std::uint64_t, FlowState> flows_;
    std::map<std::int64_t, ReplState> repl_;
};

} // namespace skv::obs
