#include "workload/client.hpp"

namespace skv::workload {

namespace {

/// Per-request client turnaround: the load generator's own event loop,
/// buffer management and timer bookkeeping between receiving a reply and
/// issuing the next request. Calibrated so the concurrency at which the
/// server saturates matches the paper's Fig. 10/11 knees (redis-benchmark
/// is not a zero-overhead client).
constexpr sim::Duration kTurnaround = sim::microseconds(9);

} // namespace

BenchClient::BenchClient(sim::Simulation& sim, const cpu::CostModel& costs,
                         net::NodeRef node, Generator gen)
    : sim_(sim), costs_(costs), node_(node), gen_(std::move(gen)),
      rng_(sim.fork_rng()) {}

void BenchClient::attach(net::ChannelPtr ch) {
    channel_ = std::move(ch);
    // Weak capture: the client owns the channel and the handler lives
    // inside the channel, so an owning capture would cycle and neither
    // object could ever be reclaimed.
    std::weak_ptr<BenchClient> weak = weak_from_this();
    channel_->set_on_message([weak](std::string payload) {
        if (auto self = weak.lock()) self->on_reply(std::move(payload));
    });
    issue_next();
}

void BenchClient::issue_next() {
    if (!running_ || !channel_ || !channel_->open()) return;
    const auto argv = gen_.next();
    // Command construction cost on the client core.
    node_.core->consume(costs_.jittered(rng_, costs_.reply_build));
    in_flight_ = true;
    issued_at_ = sim_.now();
    if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->flow_issue(channel_->flow_id(), obs_track_);
    }
    channel_->send(kv::resp::command(argv));
}

void BenchClient::on_reply(std::string payload) {
    parser_.feed(payload);
    kv::resp::Value v;
    for (;;) {
        const auto st = parser_.next(&v);
        if (st == kv::resp::Status::kNeedMore) break;
        if (st == kv::resp::Status::kError) {
            ++errors_;
            parser_.reset();
            break;
        }
        if (!in_flight_) continue; // stale reply after stop()
        in_flight_ = false;
        if (tracer_ != nullptr && tracer_->enabled()) {
            tracer_->flow_complete(channel_->flow_id());
        }
        const sim::Duration latency = sim_.now() - issued_at_;
        if (v.is_error()) ++errors_;
        if (recording_) {
            ++recorded_;
            hist_.record(latency);
            if (hook_) hook_(latency);
        }
        // Reply-parse cost on the core, then the client's own turnaround
        // (not core-occupying: it models the generator's pacing, so 16
        // connections do not serialize behind one simulated core).
        node_.core->consume(costs_.jittered(rng_, costs_.cmd_parse));
        auto self = shared_from_this();
        sim_.after(costs_.jittered(rng_, kTurnaround),
                   [self]() { self->issue_next(); });
    }
}

} // namespace skv::workload
