#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kv/resp.hpp"
#include "net/transport.hpp"
#include "obs/tracer.hpp"
#include "skv/cluster.hpp"

namespace skv::workload {

/// A scripted RESP client: one connection to one server, commands sent when
/// the caller says, replies parsed and kept in arrival order. Tests, the
/// examples and the shell talk to a simulated server through it. Unlike
/// BenchClient and RetryClient, which model load generators, it charges no
/// client CPU and paces nothing, so the server sees exactly what is sent,
/// when it is sent. The channel's callbacks hold only a weak reference back,
/// so a reply or a dial that lands after the Session is gone is dropped.
class Session {
public:
    /// Dial Cluster::server(node) of `c` from a new client host named
    /// `host`, then run the simulation 10 ms.
    Session(offload::Cluster& c, const std::string& host, int node = -1);
    /// Dial (to, port) over `transport` from `from`, then run 10 ms.
    Session(sim::Simulation& sim, net::Transport& transport, net::NodeRef from,
            net::EndpointId to, std::uint16_t port);
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] bool connected() const { return channel_ != nullptr; }
    /// Send one command, or bytes as they are (no-op while unconnected).
    void send(const std::vector<std::string>& argv) { send_raw(kv::resp::command(argv)); }
    void send_raw(std::string_view bytes);
    /// Send `argv` and run the simulation in 1 ms steps until its reply (the
    /// first reply to land after the send) arrives; nullopt if none has
    /// within `bound`.
    std::optional<kv::resp::Value> call(const std::vector<std::string>& argv,
                                        sim::Duration bound = sim::seconds(2));
    /// Run the simulation in `step` slices until `done()` holds, `bound` has
    /// passed or nothing is left to run. Returns done().
    bool run_until(const std::function<bool()>& done, sim::Duration bound,
                   sim::Duration step);

    /// Called with each reply as it lands, after it joins replies(). Set it
    /// outside the callback: replacing it from inside destroys the caller.
    using ReplyFn = std::function<void(const kv::resp::Value&)>;
    void on_reply(ReplyFn fn) { on_reply_ = std::move(fn); }
    [[nodiscard]] const std::vector<kv::resp::Value>& replies() const { return replies_; }

    /// Stamp each send and reply against the channel's flow id on the
    /// tracer track `track_name`, as BenchClient::set_tracer does.
    void set_tracer(obs::Tracer* tracer, const std::string& track_name) {
        tracer_ = tracer;
        obs_track_ = tracer != nullptr ? tracer->track(track_name) : UINT32_MAX;
    }

private:
    void on_message(std::string_view payload);

    sim::Simulation& sim_;
    std::shared_ptr<Session*> self_; // what the callbacks lock
    net::ChannelPtr channel_;
    kv::resp::ReplyParser parser_;
    std::vector<kv::resp::Value> replies_;
    ReplyFn on_reply_;
    obs::Tracer* tracer_ = nullptr;
    std::uint32_t obs_track_ = UINT32_MAX;
};

} // namespace skv::workload
