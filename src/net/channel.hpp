#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "cpu/core.hpp"
#include "net/fabric.hpp"

namespace skv::net {

/// A node as seen by the transport layers: its fabric endpoint plus the
/// core that pays transport CPU costs (syscalls, WR posts) on that node.
struct NodeRef {
    EndpointId ep = kInvalidEndpoint;
    cpu::Core* core = nullptr;
    [[nodiscard]] bool valid() const { return ep != kInvalidEndpoint && core != nullptr; }
};

/// A bidirectional, message-oriented pipe between two nodes. Implemented
/// by the kernel-TCP model (net::TcpNetwork) and by the RDMA ring-buffer
/// messenger (rdma::RingChannel). Servers and clients are written against
/// this interface so the same Host-KV code runs over either transport,
/// mirroring how SKV swaps Redis's TCP layer for verbs.
///
/// Delivery is asynchronous: send() returns immediately after charging the
/// local transport cost; the peer's message handler fires when the payload
/// has crossed the simulated network and the peer paid its receive cost.
///
/// The base owns the receive side every transport shares: the handler and
/// the queue of messages that arrive before one is installed. A transport
/// hands each arrived message to deliver().
///
/// Ownership model (see DESIGN.md "Ownership model"): the accepting or
/// connecting component owns the channel via this shared_ptr. The message
/// handler installed with set_on_message() is *stored inside the channel*,
/// so a handler must never capture an owning shared_ptr to any object that
/// (transitively) owns the channel — that is a reference cycle and the
/// whole connection graph outlives the link. Capture a weak_ptr and lock it
/// per message instead (tools/simlint reports violations as [cycle]).
/// close() additionally clears the installed handler — deferred one sim
/// event so a handler may close its own channel mid-delivery — which makes
/// teardown safe even where a cycle slipped through.
class Channel {
public:
    using MessageHandler = std::function<void(std::string payload)>;

    Channel() { ++live_count_; }
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;
    virtual ~Channel() { --live_count_; }

    /// Number of channel objects currently alive (all transports, both
    /// ends, including reliable wrappers). The lifetime regression test
    /// asserts this drops when links sever — while the sim is running, not
    /// at process exit.
    [[nodiscard]] static long live_count() { return live_count_; }

    /// Queue `payload` for transmission to the peer. The channel copies
    /// what it keeps before returning, so `payload` need not outlive the
    /// call.
    virtual void send(std::string_view payload) = 0;

    /// Install the receive handler. Messages arriving before a handler is
    /// installed are buffered and delivered on installation.
    void set_on_message(MessageHandler handler) {
        on_message_ = std::move(handler);
        while (on_message_ && !pending_.empty()) {
            auto payload = std::move(pending_.front());
            pending_.pop_front();
            on_message_(std::move(payload));
        }
    }

    /// Tear down this side of the channel. In-flight messages are dropped.
    virtual void close() = 0;

    [[nodiscard]] virtual bool open() const = 0;

    /// Fabric endpoint of the remote side (for diagnostics).
    [[nodiscard]] virtual EndpointId peer() const = 0;

    /// Bytes queued locally but not yet accepted by the transport (send
    /// backlog). Used by replication-lag accounting.
    [[nodiscard]] virtual std::size_t backlog_bytes() const = 0;

    /// Deterministic per-connection id, identical on both ends of a pair
    /// (assigned at pair creation by the connection manager / TCP
    /// handshake; reliable wrappers forward the inner channel's id). The
    /// observability tracer correlates request stages across client and
    /// server by this id. 0 means "not assigned".
    [[nodiscard]] virtual std::uint64_t flow_id() const { return flow_id_; }
    void set_flow_id(std::uint64_t id) { flow_id_ = id; }

protected:
    /// Hand one arrived message to the handler, or queue it until one is
    /// installed.
    void deliver(std::string payload) {
        if (on_message_) {
            on_message_(std::move(payload));
        } else {
            pending_.push_back(std::move(payload));
        }
    }
    [[nodiscard]] bool has_handler() const { return static_cast<bool>(on_message_); }
    /// Close paths drop undelivered messages at once; the handler itself is
    /// cleared (set_on_message(nullptr)) one sim event later.
    void drop_pending() { pending_.clear(); }

private:
    MessageHandler on_message_;
    std::deque<std::string> pending_; // arrived before a handler was set
    std::uint64_t flow_id_ = 0;
    // The simulation is single-threaded; a plain counter is deterministic.
    inline static long live_count_ = 0;
};

using ChannelPtr = std::shared_ptr<Channel>;

} // namespace skv::net
