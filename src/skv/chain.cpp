#include "skv/chain.hpp"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "skv/fanout.hpp"

namespace skv::offload {
namespace {

using server::NodeMsg;
using server::Role;

/// Host half: the master posts to Nic-KV as in fan-out; a slave relays
/// frames to its successor and, as the tail, answers reads.
class ChainHost final : public FanoutHost {
public:
    [[nodiscard]] bool committed(std::int64_t offset) const override {
        // Every valid member must ack, so a tail read never misses an acked
        // write. The detector's member count is a floor: a healed member
        // Nic-KV already spliced back in (maybe as the leased tail) can lack
        // a slave link until it re-registers.
        const int need = std::max(valid_slaves(), server().available_slaves());
        return need == 0 || acked_slaves(offset) >= need;
    }

    bool serve_replica_read() override {
        // The tail's copy is the chain's committed prefix.
        if (!read_ok()) return false;
        stats().incr("chain_tail_reads");
        return true;
    }

    void on_role_change() override {
        // A stand-in serves writes solo; a demoted master waits for a fresh
        // assignment.
        leave();
    }

    bool on_link_broken(const net::Channel* raw) override {
        if (!succ_link_ || succ_link_.get() != raw) return false;
        // No redial: Nic-KV's detector re-splices and sends a new assignment.
        drop_link(succ_link_);
        stats().incr("chain_links_broken");
        return true;
    }

    void on_crash() override {
        succ_link_.reset(); // unclosed: a dead process sends no FIN
        leave();
    }

    void on_chain_set(const NodeMsg& msg) override {
        if (role() != Role::kSlave) return;
        stats().incr("chain_sets");
        if (msg.body == "-") {
            leave(); // the master died: no commits flow until it returns
            return;
        }
        member_ = true;
        // Nic-KV's fan-out cursor at assignment time: reads stay refused
        // until this member applied past it.
        read_floor_ = msg.field;
        tail_ = msg.body.empty();
        if (msg.body == succ_ && (tail_ || (succ_link_ && succ_link_->open()))) {
            return; // no successor change and the link is healthy
        }
        // New successor (or a dead link): Nic-KV resyncs the successor's gap.
        drop_successor();
        succ_ = msg.body;
        if (!tail_) dial_successor();
    }

    void on_chain_data(const NodeMsg& msg) override {
        if (role() != Role::kSlave) {
            HostReplication::on_chain_data(msg);
            return;
        }
        // Relay first, so the hop overlaps our own apply.
        stats().incr("chain_frames");
        forward(msg.field, msg.body);
        apply_frame(msg);
    }

private:
    /// Forget the assignment and drop the successor link.
    void leave() {
        member_ = false;
        tail_ = false;
        succ_.clear();
        ++dial_epoch_; // orphan any in-flight successor dial
        drop_successor();
    }

    void drop_successor() {
        drop_link(succ_link_);
        pending_.clear();
        pending_bytes_ = 0;
    }

    void dial_successor() {
        const auto ep = server::parse_peer_endpoint(succ_);
        if (!ep.has_value() || *ep == net::kInvalidEndpoint) {
            stats().incr("node_msgs_malformed");
            return;
        }
        const std::uint64_t epoch = ++dial_epoch_;
        dial_node(
            *ep, static_cast<std::uint16_t>(config().port + 1),
            [this, epoch] { return epoch == dial_epoch_ && role() == Role::kSlave; },
            [this](const net::ChannelPtr& ch) {
                succ_link_ = ch;
                stats().incr("chain_links_dialed");
                // Relay frames that arrived while the dial was in flight.
                while (!pending_.empty()) {
                    auto [off, data] = std::move(pending_.front());
                    pending_.pop_front();
                    pending_bytes_ -= data.size();
                    succ_link_->send(NodeMsg{NodeMsg::Type::kChainData, off, data}.encode());
                }
            },
            /*close_unwanted=*/true,
            [this, epoch] {
                return epoch != dial_epoch_ || tail_ || !member_ ||
                       (succ_link_ && succ_link_->open());
            },
            [this] { dial_successor(); });
    }

    /// Relay a frame to the successor, or hold it while that link dials.
    void forward(std::int64_t offset, const std::string& bytes) {
        if (tail_ || succ_.empty()) return;
        if (succ_link_ && succ_link_->open()) {
            consume(costs().jittered(rng(), costs().repl_feed_slave) +
                    costs().copy_cost(bytes.size()));
            succ_link_->send(NodeMsg{NodeMsg::Type::kChainData, offset, bytes}.encode());
            stats().incr("chain_forwards");
            return;
        }
        // Overflow is dropped; Nic-KV's stall resync serves the successor
        // from the master's backlog instead.
        if (pending_bytes_ + bytes.size() <= kPendingCap) {
            pending_bytes_ += bytes.size();
            pending_.emplace_back(offset, bytes);
        } else {
            stats().incr("chain_fwd_dropped");
        }
    }

    // simlint:observe-only
    [[nodiscard]] bool read_ok() const {
        if (role() != Role::kSlave || !member_ || !tail_) return false;
        if (server().slave_applied_offset() < read_floor_) return false; // catching up
        // Probe lease: a tail Nic-KV cannot reach stops answering before the
        // detector drops it from the commit set.
        return sim().now().ns() - last_probe_ns() <= config().chain_read_lease.ns();
    }

    bool member_ = false;  // holds a live kChainSet assignment
    bool tail_ = false;
    std::string succ_;     // successor "<name>@<ep>", "" = tail
    net::ChannelPtr succ_link_;
    std::uint64_t dial_epoch_ = 0;
    std::int64_t read_floor_ = 0;
    /// Frames that arrived while the successor link was dialing (bounded).
    std::deque<std::pair<std::int64_t, std::string>> pending_;
    std::size_t pending_bytes_ = 0;
    static constexpr std::size_t kPendingCap = 8 * 1024 * 1024;
};

/// Nic-KV half: one send per write, to the head; a re-splice (kChainSet to
/// every member) on each membership change; stall healing.
class ChainNic final : public NicReplication {
public:
    void replicate(const NodeMsg& msg) override {
        // One hop to the head (the first valid member), whatever the chain
        // length.
        for (const auto& e : nodes()) {
            if (!live_slave(e)) continue;
            ship(e, NodeMsg{NodeMsg::Type::kChainData, msg.field, msg.body}.encode(),
                 msg.body.size());
            fanout_sends().incr();
            return;
        }
        // No live member: the next chain gets the write by resync, and the
        // master's commit gate holds it back from clients meanwhile.
        stats().incr("chain_no_head");
    }

    void on_membership_change() override {
        // Splice from the detector's view: valid members in registration
        // order, each told its successor ("" for the tail) and the fan-out
        // cursor as its read floor. While the master is down the stand-in
        // serves solo, so members are told to leave ("-"): a leased tail
        // would otherwise answer reads that miss the stand-in's writes.
        std::vector<const NodeEntry*> chain;
        for (const auto& e : nodes()) {
            if (live_slave(e)) chain.push_back(&e);
        }
        const bool feeding = nic().master_valid();
        for (std::size_t i = 0; i < chain.size(); ++i) {
            std::string body;
            if (!feeding) {
                body = "-";
            } else if (i + 1 < chain.size()) {
                body = chain[i + 1]->name;
            }
            consume(costs().event_dispatch);
            chain[i]->channel->send(
                NodeMsg{NodeMsg::Type::kChainSet, fanout_offset(), body}.encode());
        }
        stats().incr("chain_reconfigs");
        // Ranges the old chain never relayed can only come from the backlog.
        if (feeding) {
            for (const auto* e : chain) {
                if (e->repl_offset < fanout_offset()) request_resync(*e);
            }
        }
    }

    void on_probe_ack(const NodeEntry& e, std::int64_t prev) override {
        resync_if_stalled(e, prev);
    }
};

} // namespace

ReplicationProtocol chain_protocol() { return make_protocol<ChainHost, ChainNic>(); }

} // namespace skv::offload
