#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "cpu/cost_model.hpp"
#include "kv/resp.hpp"
#include "net/channel.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"
#include "workload/generator.hpp"

namespace skv::workload {

/// Client-side robustness knobs: per-attempt timeouts, a hard per-operation
/// deadline and the pacing between operations. Between attempts the client
/// backs off exponentially: 10 ms * 2^(n-1) before attempt n, capped at
/// 320 ms, then jittered by +/-25% from the client's forked RNG stream.
struct RetryPolicy {
    /// An attempt (dial + request + reply) that has not answered within
    /// this long is abandoned: the channel to that target is closed (so a
    /// late reply can never be confused with the next request's) and the
    /// client rotates to the next target.
    sim::Duration attempt_timeout{sim::milliseconds(150)};
    /// Hard per-op deadline measured from the first attempt. When it
    /// cannot be met the op completes with an explicit timeout/failure —
    /// the client never hangs.
    sim::Duration op_deadline{sim::seconds(6)};
    /// Client-side pacing between consecutive operations.
    sim::Duration turnaround{sim::microseconds(20)};
};

/// A sequential (one op at a time) client that survives node crashes:
/// it retries over a rotation of targets (master first, then the slaves,
/// so failover promotions are discovered by probing), tags every write
/// with a per-client sequence token ("WSEQ <client> <seq>") for server-
/// side duplicate suppression, and records every completed operation in
/// a check::History for the linearizability gate.
///
/// Outcome contract (see check::Outcome): kOk only on a success reply;
/// kFail only when every attempt was answered by an error known not to
/// apply the write; kTimeout whenever an attempt was sent but never
/// answered — the write may have been applied.
class RetryClient : public std::enable_shared_from_this<RetryClient> {
public:
    struct Target {
        net::EndpointId ep = net::kInvalidEndpoint;
        std::uint16_t port = 0;
    };
    /// Opens a channel from `from` to the target; the callback receives
    /// the channel once established (and may never fire if the target is
    /// down — the attempt timer covers the dial).
    using DialFn = std::function<void(net::NodeRef, Target,
                                      std::function<void(net::ChannelPtr)>)>;

    RetryClient(sim::Simulation& sim, const cpu::CostModel& costs,
                net::NodeRef node, std::uint64_t client_id, Generator gen,
                RetryPolicy policy, std::vector<Target> targets, DialFn dial,
                check::History* history);

    /// Issue `ops` operations (then go idle). Must be called once.
    void start(std::uint64_t ops);
    /// Stop issuing new ops; an in-flight op still runs to completion.
    void stop() { running_ = false; }

    /// One externally-supplied operation for the driver-paced (open-loop)
    /// mode: the client does not draw from its own Generator or pace
    /// itself — the driver hands it ops one at a time via issue().
    struct DrivenOp {
        check::OpType type = check::OpType::kRead;
        std::string key;
        std::string value; // writes only
        /// Non-empty: the op is a range scan, sent as one MGET over these
        /// keys (the simulator's stand-in for YCSB's SCAN verb).
        std::vector<std::string> scan_keys;
    };
    using DoneFn = std::function<void(check::Outcome)>;

    /// Execute one driven op (with the full retry/timeout machinery) and
    /// invoke `done` on completion. The connection must be idle() — the
    /// driver owns pacing, so issue() never queues. Mutually exclusive
    /// with start() on the same client.
    void issue(DrivenOp op, DoneFn done);

    /// Wire the cluster tracer so driven ops stamp issue/completion against
    /// their channel's flow id (same contract as BenchClient::set_tracer).
    void set_tracer(obs::Tracer* tracer, const std::string& track_name) {
        tracer_ = tracer;
        obs_track_ = tracer != nullptr ? tracer->track(track_name) : UINT32_MAX;
    }

    /// True when no op is in flight and no further op will be issued.
    [[nodiscard]] bool idle() const { return !op_active_ && (remaining_ == 0 || !running_); }

    [[nodiscard]] std::uint64_t ops_ok() const { return ops_ok_; }
    [[nodiscard]] std::uint64_t ops_failed() const { return ops_failed_; }
    [[nodiscard]] std::uint64_t ops_timed_out() const { return ops_timed_out_; }
    [[nodiscard]] std::uint64_t retries() const { return retries_; }
    [[nodiscard]] std::uint64_t client_id() const { return client_id_; }
    /// Sim time of the most recent kOk completion (zero if none yet) —
    /// the availability bench derives recovery time from this.
    [[nodiscard]] sim::SimTime last_ok_at() const { return last_ok_at_; }

    /// Protocol-aware read routing: start each read's *first* attempt at
    /// this target index (e.g. the chain tail, which serves reads in chain
    /// mode). Retries still rotate through every target, so a refusal
    /// (-READONLY) falls back to the master normally. Out-of-range (the
    /// default) leaves reads on the sticky rotation.
    void set_read_first(std::size_t idx) { read_first_ = idx; }

private:
    void next_op();
    void attempt();
    void send_on(std::size_t tidx);
    void on_channel_message(std::size_t tidx, const std::string& payload);
    void handle_reply(const kv::resp::Value& v);
    void on_attempt_timeout(std::uint64_t epoch);
    void retry(bool rotate);
    void finalize(check::Outcome outcome, bool found, std::string value);
    [[nodiscard]] sim::Duration next_backoff();

    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    net::NodeRef node_;
    std::uint64_t client_id_;
    Generator gen_;
    RetryPolicy policy_;
    std::vector<Target> targets_;
    DialFn dial_;
    check::History* history_;
    sim::Rng rng_;

    // One cached channel + reply parser per target. A channel is closed
    // (and the parser reset) whenever an attempt on it times out, so a
    // late reply can never be attributed to a later request.
    std::vector<net::ChannelPtr> channels_;
    std::vector<kv::resp::ReplyParser> parsers_;
    std::size_t cur_ = 0; // sticky: next op starts at the last good target
    std::size_t read_first_ = SIZE_MAX; // see set_read_first()

    // Current operation.
    bool op_active_ = false;
    bool waiting_ = false; // an attempt is outstanding
    check::OpType op_type_ = check::OpType::kRead;
    std::string op_key_;
    std::string op_value_;
    std::vector<std::string> op_scan_keys_;
    DoneFn op_done_; // driven mode: completion callback instead of next_op
    std::uint64_t op_seq_ = 0;
    std::int64_t op_invoke_ns_ = 0;
    sim::SimTime op_deadline_at_ = sim::SimTime::zero();
    int op_attempts_ = 0;
    /// The current attempt's request actually reached a channel (a dial
    /// that never completed proves nothing was sent).
    bool attempt_sent_ = false;
    /// Sticky: some write attempt reached the wire and was never answered
    /// by an error proving it did not apply.
    bool maybe_applied_ = false;
    /// Bumped on every attempt start and reply; stale timeout events and
    /// dial callbacks compare against it and become no-ops.
    std::uint64_t attempt_epoch_ = 0;

    bool running_ = false;
    std::uint64_t remaining_ = 0;
    std::uint64_t ops_ok_ = 0;
    std::uint64_t ops_failed_ = 0;
    std::uint64_t ops_timed_out_ = 0;
    std::uint64_t retries_ = 0;
    sim::SimTime last_ok_at_ = sim::SimTime::zero();
    obs::Tracer* tracer_ = nullptr;
    std::uint32_t obs_track_ = UINT32_MAX;
};

} // namespace skv::workload
