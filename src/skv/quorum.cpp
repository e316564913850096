#include "skv/quorum.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "skv/fanout.hpp"

namespace skv::offload {
namespace {

using server::NodeMsg;

/// Host half: the master commits on the released watermark and writes back
/// for parked reads; a slave acks its progress to Nic-KV.
class QuorumHost final : public FanoutHost {
public:
    [[nodiscard]] bool committed(std::int64_t offset) const override {
        // Nic-KV's ack aggregation releases commits. A master without
        // replicas (bootstrap, a stand-in serving solo) is its own majority.
        if (server().slave_count() == 0 && server().available_slaves() <= 0) return true;
        return commit_offset_ >= offset;
    }

    void on_read_parked(std::int64_t offset) override {
        // ABD read phase 2: the read saw state at `offset`, not yet on a
        // majority. Push the backlog suffix back through Nic-KV before the
        // reply releases; concurrent parked reads share one write-back.
        const net::ChannelPtr& link = server().nic_link();
        if (!link || !link->open()) return;
        if (offset <= repair_sent_ || offset <= commit_offset_) return;
        const std::int64_t from = std::max<std::int64_t>(commit_offset_, 0);
        if (!backlog().can_serve(from)) return; // resync machinery covers laggards
        const std::string range = backlog().read_from(from);
        if (range.empty()) return;
        consume(costs().jittered(rng(), costs().offload_request_build) +
                costs().copy_cost(range.size()));
        link->send(NodeMsg{NodeMsg::Type::kReadRepair, from, range}.encode());
        repair_sent_ = backlog().master_offset();
        stats().incr("read_repairs_sent");
    }

    void report_progress() override {
        const net::ChannelPtr& link = nic_reg();
        if (role() != server::Role::kSlave || !link || !link->open()) return;
        consume(costs().event_dispatch);
        link->send(NodeMsg{NodeMsg::Type::kQuorumAck, server().slave_applied_offset(),
                           config().name}
                       .encode());
    }

    void on_quorum_commit(const NodeMsg& msg) override {
        if (role() == server::Role::kSlave) {
            HostReplication::on_quorum_commit(msg);
            return;
        }
        commit_offset_ = std::max(commit_offset_, msg.field);
        stats().incr("quorum_commit_updates");
        flush_parked();
    }

    void on_crash() override {
        commit_offset_ = 0;
        repair_sent_ = 0;
    }

    [[nodiscard]] std::int64_t quorum_commit_offset() const override {
        return commit_offset_;
    }

private:
    std::int64_t commit_offset_ = 0; // Nic-KV-released majority watermark
    std::int64_t repair_sent_ = 0;   // high-water dedup for write-backs
};

/// Nic-KV half: turns slave acks into the majority watermark, re-fans
/// write-backs, promotes the most caught-up replica, heals stalled slaves.
class QuorumNic final : public FanoutNic {
public:
    void replicate(const NodeMsg& msg) override {
        FanoutNic::replicate(msg);
        // A no-op until acks arrive, unless the injected zero-ack majority
        // (split-brain self-test) counts the master's copy alone.
        recompute_watermark();
    }

    void on_master_registered(const net::ChannelPtr& ch) override {
        // A (re)attaching master learns the watermark at once, or replies
        // it parks again would stall until new writes.
        if (watermark_ <= 0 || !ch->open()) return;
        consume(costs().event_dispatch);
        ch->send(NodeMsg{NodeMsg::Type::kQuorumCommit, watermark_, ""}.encode());
    }

    void on_slave_registered(const std::string& name, std::int64_t offset) override {
        acks_[name] = offset; // registration offset = data it already holds
    }

    void on_probe_ack(const NodeEntry& e, std::int64_t prev) override {
        resync_if_stalled(e, prev);
    }

    [[nodiscard]] int pick_stand_in() const override {
        // The most caught-up replica the ack aggregation knows about.
        int pick = -1;
        std::int64_t best = -1;
        const auto& n = nodes();
        for (std::size_t i = 0; i < n.size(); ++i) {
            if (n[i].is_master || !n[i].valid || !n[i].channel) continue;
            const std::int64_t off = std::max(ack_of(n[i]), n[i].repl_offset);
            if (off > best) {
                best = off;
                pick = static_cast<int>(i);
            }
        }
        return pick;
    }

    void on_crash() override {
        watermark_ = 0;
        acks_.clear();
    }

    void on_quorum_ack(const net::ChannelPtr& ch, const NodeMsg& msg) override {
        consume(costs().event_dispatch);
        NodeEntry* e = node_on(ch);
        if (e == nullptr || e->is_master) return;
        std::int64_t& ack = acks_[e->name];
        ack = std::max(ack, msg.field);
        e->repl_offset = std::max(e->repl_offset, msg.field);
        stats().incr("quorum_acks");
        recompute_watermark();
    }

    void on_read_repair(const NodeMsg& msg) override {
        // ABD read phase 2: re-fan the master's write-back to the replicas
        // that have not acked it (slaves skip what they already applied).
        consume(costs().jittered(rng(), costs().nic_repl_parse));
        const std::int64_t end = msg.field + static_cast<std::int64_t>(msg.body.size());
        const std::string wire =
            NodeMsg{NodeMsg::Type::kReplData, msg.field, msg.body}.encode();
        for (const auto& e : nodes()) {
            if (!live_slave(e) || ack_of(e) >= end) continue;
            ship(e, wire, msg.body.size());
            stats().incr("read_repair_sends");
        }
        stats().incr("read_repairs");
    }

    [[nodiscard]] std::int64_t quorum_watermark() const override { return watermark_; }

private:
    [[nodiscard]] std::int64_t ack_of(const NodeEntry& e) const {
        const auto it = acks_.find(e.name);
        return it == acks_.end() ? 0 : it->second;
    }

    [[nodiscard]] int acks_needed() const {
        const int forced = nic().config().quorum_slave_acks_override;
        if (forced >= 0) return forced;
        // Fixed-n ABD over master + every registered slave: majority(n) - 1
        // slave acks, the master's copy being one. Dead slaves stay in n;
        // shrinking it on failure would silently weaken the quorum.
        const int replicas = 1 + static_cast<int>(nic().slave_count());
        return replicas / 2 + 1 - 1;
    }

    /// Release commits to the master (kQuorumCommit) whenever the majority
    /// mark advances.
    void recompute_watermark() {
        const int need = acks_needed();
        std::int64_t mark = 0;
        if (need <= 0) {
            mark = fanout_offset(); // the master's copy alone is a majority
        } else {
            std::vector<std::int64_t> acks;
            for (const auto& e : nodes()) {
                if (!e.is_master) acks.push_back(ack_of(e));
            }
            if (static_cast<int>(acks.size()) < need) return;
            std::sort(acks.begin(), acks.end(), std::greater<>());
            mark = acks[static_cast<std::size_t>(need - 1)];
        }
        if (mark <= watermark_) return;
        watermark_ = mark;
        net::Channel* master = master_link();
        if (master == nullptr) return;
        consume(costs().event_dispatch);
        master->send(NodeMsg{NodeMsg::Type::kQuorumCommit, watermark_, ""}.encode());
        stats().incr("quorum_commits");
    }

    std::int64_t watermark_ = 0;
    /// Per slave: the highest offset it acked (from its registration on).
    std::map<std::string, std::int64_t> acks_;
};

} // namespace

ReplicationProtocol quorum_protocol() { return make_protocol<QuorumHost, QuorumNic>(); }

} // namespace skv::offload
