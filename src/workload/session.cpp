#include "workload/session.hpp"

namespace skv::workload {

Session::Session(offload::Cluster& c, const std::string& host, int node)
    : Session(c.sim(), c.transport(), c.add_client_host(host),
              c.server(node).node().ep, c.server(node).config().port) {}

Session::Session(sim::Simulation& sim, net::Transport& transport,
                 net::NodeRef from, net::EndpointId to, std::uint16_t port)
    : sim_(sim), self_(std::make_shared<Session*>(this)) {
    // Weak captures: the Session owns the channel, the handler lives inside
    // it, and a dial may complete after the Session is gone.
    std::weak_ptr<Session*> weak = self_;
    transport.connect(from, to, port, [weak](net::ChannelPtr ch) {
        const auto self = weak.lock();
        if (!self || !ch) return;
        (*self)->channel_ = std::move(ch);
        (*self)->channel_->set_on_message([weak](std::string payload) {
            if (const auto s = weak.lock()) (*s)->on_message(payload);
        });
    });
    sim_.run_until(sim_.now() + sim::milliseconds(10));
}

void Session::send_raw(std::string_view bytes) {
    if (!channel_) return;
    if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->flow_issue(channel_->flow_id(), obs_track_);
    }
    channel_->send(bytes);
}

std::optional<kv::resp::Value> Session::call(
    const std::vector<std::string>& argv, sim::Duration bound) {
    if (!channel_) return std::nullopt;
    const std::size_t before = replies_.size();
    send(argv);
    if (!run_until([&] { return replies_.size() > before; }, bound,
                   sim::milliseconds(1))) {
        return std::nullopt;
    }
    return replies_[before];
}

bool Session::run_until(const std::function<bool()>& done, sim::Duration bound,
                        sim::Duration step) {
    const sim::SimTime stop = sim_.now() + bound;
    while (!done() && sim_.now() < stop) {
        if (sim_.run_until(sim_.now() + step) == 0 && sim_.events_pending() == 0) {
            break;
        }
    }
    return done();
}

void Session::on_message(std::string_view payload) {
    parser_.feed(payload);
    for (;;) {
        kv::resp::Value v;
        const auto st = parser_.next(&v);
        if (st == kv::resp::Status::kNeedMore) return;
        if (st == kv::resp::Status::kError) {
            parser_.reset();
            return;
        }
        if (tracer_ != nullptr && tracer_->enabled()) {
            tracer_->flow_complete(channel_->flow_id());
        }
        replies_.push_back(std::move(v));
        if (on_reply_) on_reply_(replies_.back());
    }
}

} // namespace skv::workload
