#pragma once

#include <cstdint>
#include <memory>

#include "cpu/cost_model.hpp"
#include "kv/resp.hpp"
#include "net/channel.hpp"
#include "obs/tracer.hpp"
#include "sim/histogram.hpp"
#include "sim/simulation.hpp"
#include "workload/generator.hpp"

namespace skv::workload {

/// One closed-loop benchmark connection (one redis-benchmark client): it
/// keeps exactly one request outstanding — send, wait for the reply,
/// record the latency, send the next. Throughput emerges from N clients
/// racing the server's service rate, exactly as in the paper's setup.
class BenchClient : public std::enable_shared_from_this<BenchClient> {
public:
    BenchClient(sim::Simulation& sim, const cpu::CostModel& costs,
                net::NodeRef node, Generator gen);

    /// Attach the established channel and start issuing.
    void attach(net::ChannelPtr ch);

    /// Begin/stop counting ops and recording latencies (warmup control).
    void set_recording(bool on) { recording_ = on; }
    void stop() { running_ = false; }

    /// Invoked after every recorded completion with the observed latency.
    using CompletionHook = std::function<void(sim::Duration)>;
    void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }

    /// Wire the cluster tracer; `track_name` labels this client's row in
    /// the chrome trace. Each issue/completion is stamped against the
    /// channel's flow id so per-stage request latency can be correlated.
    void set_tracer(obs::Tracer* tracer, const std::string& track_name) {
        tracer_ = tracer;
        obs_track_ = tracer != nullptr ? tracer->track(track_name) : UINT32_MAX;
    }

    [[nodiscard]] std::uint64_t recorded_ops() const { return recorded_; }
    [[nodiscard]] std::uint64_t errors() const { return errors_; }
    /// Error replies among the recorded ops.
    [[nodiscard]] std::uint64_t recorded_errors() const { return recorded_errors_; }
    [[nodiscard]] const sim::LatencyHistogram& latencies() const { return hist_; }

private:
    void issue_next();
    void on_reply(std::string payload);

    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    net::NodeRef node_;
    Generator gen_;
    sim::Rng rng_;

    net::ChannelPtr channel_;
    kv::resp::ReplyParser parser_;
    sim::SimTime issued_at_ = sim::SimTime::zero();
    bool in_flight_ = false;
    bool running_ = true;
    bool recording_ = false;

    std::uint64_t recorded_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t recorded_errors_ = 0;
    sim::LatencyHistogram hist_;
    CompletionHook hook_;
    obs::Tracer* tracer_ = nullptr;
    std::uint32_t obs_track_ = UINT32_MAX;
};

} // namespace skv::workload
