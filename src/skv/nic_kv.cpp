#include "skv/nic_kv.hpp"

#include <algorithm>

#include "kv/sds.hpp"
#include "rdma/ring_channel.hpp"
#include "sim/check.hpp"

namespace skv::offload {

using server::NodeMsg;

namespace {
/// Node-list entry footprint charged against on-board DRAM.
constexpr std::size_t kNodeEntryBytes = 512 * 1024;
} // namespace

NicKv::NicKv(sim::Simulation& sim, const cpu::CostModel& costs,
             rdma::ConnectionManager& cm, nic::SmartNic& nic, NicKvConfig cfg,
             std::unique_ptr<NicReplication> repl)
    : sim_(sim), costs_(costs), cm_(cm), nic_(nic), cfg_(std::move(cfg)),
      rng_(sim.fork_rng()), repl_(std::move(repl)),
      c_fanout_sends_(stats_.counter_handle("fanout_sends")),
      c_repl_requests_(stats_.counter_handle("repl_requests")) {
    SKV_CHECK(repl_ != nullptr);
    repl_->n_ = this;
}

void NicKv::start() {
    SKV_CHECK(!started_);
    started_ = true;
    cm_.listen(nic_.node(0), cfg_.port,
               [this](net::ChannelPtr ch) {
                   if (ch && !crashed_) on_accept(std::move(ch));
               });
    const std::uint64_t epoch = ++probe_epoch_;
    sim_.after(cfg_.probe_interval, [this, epoch]() { probe_cycle(epoch); });
}

void NicKv::crash() {
    SKV_CHECK(started_ && !crashed_);
    crashed_ = true;
    for (int i = 0; i < nic_.core_count(); ++i) nic_.core(i).halt();
    // The service's state lives entirely in on-board DRAM: node table,
    // fan-out cursor, pending registrations — all gone with the process.
    nic_.release_memory(kNodeEntryBytes * nodes_.size());
    nodes_.clear();
    pending_.clear();
    master_idx_ = -1;
    promoted_idx_ = -1;
    fanout_offset_ = 0;
    repl_->on_crash();
    stats_.incr("crashes");
}

void NicKv::recover() {
    SKV_CHECK(crashed_);
    crashed_ = false;
    for (int i = 0; i < nic_.core_count(); ++i) nic_.core(i).resume();
    stats_.incr("recoveries");
    // Fresh probe chain; the pre-crash chain's scheduled events carry a
    // stale epoch and are ignored. Registration is peer-driven: the master
    // re-attaches and slaves re-register after probe_silence_timeout.
    const std::uint64_t epoch = ++probe_epoch_;
    sim_.after(cfg_.probe_interval, [this, epoch]() { probe_cycle(epoch); });
}

void NicKv::on_accept(net::ChannelPtr ch) {
    // Default parameters, like the KvServer end: both ends of a node link
    // speak the same envelope.
    auto rel = server::ReliableChannel::wrap(sim_, std::move(ch), {}, &stats_);
    const net::Channel* rel_raw = rel.get();
    rel->set_on_broken([this, rel_raw]() { on_link_broken(rel_raw); });
    ch = rel;
    auto raw = ch.get();
    ch->set_on_message([this, raw](std::string payload) {
        if (crashed_) return;
        // Recover the shared_ptr from the node list (or transiently wrap).
        sim::NodeScope owner_node(endpoint());
        const auto msg = NodeMsg::decode(payload);
        if (!msg.has_value()) {
            stats_.incr("malformed");
            return;
        }
        // Identify the entry by channel pointer.
        net::ChannelPtr owner;
        for (auto& n : nodes_) {
            if (n.channel.get() == raw) {
                owner = n.channel;
                break;
            }
        }
        if (!owner) {
            // First message on a fresh connection: registration.
            for (auto& p : pending_) {
                if (p.get() == raw) {
                    owner = p;
                    break;
                }
            }
        }
        if (!owner) return;
        handle(owner, *msg);
    });
    pending_.push_back(std::move(ch));
}

std::optional<NodeEntry> NicKv::entry_for(const net::ChannelPtr& ch, std::string name,
                                          std::string_view ident, std::int64_t offset) {
    const auto ep = server::parse_peer_endpoint(ident);
    if (!ep.has_value()) {
        stats_.incr("malformed");
        return std::nullopt;
    }
    NodeEntry e;
    e.name = std::move(name);
    e.ep = *ep;
    e.channel = ch;
    e.last_heard_ns = sim_.now().ns();
    e.repl_offset = offset;
    return e;
}

NicKv::Joined NicKv::join(NodeEntry e) {
    const auto existing = std::find_if(nodes_.begin(), nodes_.end(),
                                       [&e](const NodeEntry& n) { return n.name == e.name; });
    if (existing != nodes_.end()) {
        const bool was_valid = existing->valid;
        // The refreshed registration supersedes the old channel; close it so
        // the dead connection's object graph (ring/QP state) is released,
        // not merely unreferenced.
        if (existing->channel && existing->channel != e.channel) {
            existing->channel->close();
        }
        *existing = std::move(e);
        return was_valid ? Joined::kRejoinedValid : Joined::kRejoinedInvalid;
    }
    if (!nic_.reserve_memory(kNodeEntryBytes)) {
        stats_.incr("oom_rejects");
        return Joined::kNoMemory;
    }
    nodes_.push_back(std::move(e));
    return Joined::kNew;
}

void NicKv::demote_stand_in() {
    if (promoted_idx_ < 0) return;
    auto& stand_in = nodes_[static_cast<std::size_t>(promoted_idx_)];
    if (stand_in.channel && stand_in.channel->open()) {
        stand_in.channel->send(NodeMsg{NodeMsg::Type::kDemote, 0, ""}.encode());
    }
    promoted_idx_ = -1;
}

NodeEntry* NicKv::find_by_channel(const net::ChannelPtr& ch) {
    for (auto& n : nodes_) {
        if (n.channel == ch) return &n;
    }
    return nullptr;
}

std::size_t NicKv::slave_count() const {
    std::size_t n = 0;
    for (const auto& e : nodes_) {
        if (!e.is_master) ++n;
    }
    return n;
}

int NicKv::valid_slaves() const {
    int n = 0;
    for (const auto& e : nodes_) {
        if (!e.is_master && e.valid) ++n;
    }
    return n;
}

bool NicKv::master_valid() const {
    return master_idx_ >= 0 && nodes_[static_cast<std::size_t>(master_idx_)].valid;
}

int NicKv::effective_threads() const {
    // "the actual number of threads used for replication cannot be greater
    // than the minimum value of the number of SmartNIC cores and slave
    // nodes" (paper §III-C).
    const int wanted = std::max(1, cfg_.thread_num);
    return std::max(1, std::min({wanted, nic_.core_count(),
                                 static_cast<int>(slave_count())}));
}

void NicKv::assign_cores() {
    const int threads = effective_threads();
    int next = 0;
    for (auto& e : nodes_) {
        if (e.is_master) continue;
        e.core_idx = next % threads;
        // The ring messenger may sit under the reliable wrapper.
        net::ChannelPtr transport = e.channel;
        if (auto rel =
                std::dynamic_pointer_cast<server::ReliableChannel>(transport)) {
            transport = rel->inner();
        }
        if (auto ring = std::dynamic_pointer_cast<rdma::RingChannel>(transport)) {
            ring->rebind_core(&nic_.core(e.core_idx));
        }
        ++next;
    }
}

void NicKv::handle(const net::ChannelPtr& ch, const NodeMsg& msg) {
    switch (msg.type) {
        case NodeMsg::Type::kSync:
            // "master:<name>@<ep>" — the master Host-KV attaching.
            if (msg.body.rfind("master:", 0) == 0) {
                register_master(ch, msg);
            } else {
                // Baseline slave->master kSync never targets the NIC.
                stats_.incr("unexpected_msgs");
            }
            break;
        case NodeMsg::Type::kInitSync:
            register_slave(ch, msg);
            break;
        case NodeMsg::Type::kReplData:
            fan_out(msg);
            break;
        case NodeMsg::Type::kProbeAck:
            handle_probe_ack(ch, msg);
            break;
        // Protocol frames belong to the replication half.
        case NodeMsg::Type::kQuorumAck:
            repl_->on_quorum_ack(ch, msg);
            break;
        case NodeMsg::Type::kReadRepair:
            repl_->on_read_repair(msg);
            break;
        // The NIC originates these (or they flow host<->host around it) and
        // must never receive them; each is named so that adding an enum
        // value forces a decision here (simlint unhandled-tag).
        case NodeMsg::Type::kSyncNotify:
        case NodeMsg::Type::kFullSync:
        case NodeMsg::Type::kBacklog:
        case NodeMsg::Type::kAck:
        case NodeMsg::Type::kProbe:
        case NodeMsg::Type::kResyncRequest:
        case NodeMsg::Type::kPromote:
        case NodeMsg::Type::kDemote:
        case NodeMsg::Type::kSlaveCount:
        case NodeMsg::Type::kChainSet:
        case NodeMsg::Type::kChainData:
        case NodeMsg::Type::kQuorumCommit:
            stats_.incr("unexpected_msgs");
            break;
    }
}

void NicKv::register_master(const net::ChannelPtr& ch, const NodeMsg& msg) {
    nic_.core(0).consume(costs_.event_dispatch);
    const std::string ident = msg.body.substr(7); // strip "master:"
    auto e = entry_for(ch, ident.substr(0, ident.find('@')), ident, msg.field);
    if (!e.has_value()) return;
    e->is_master = true;
    fanout_offset_ = msg.field;

    const Joined joined = join(std::move(*e));
    if (joined == Joined::kNoMemory) return;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].is_master) master_idx_ = static_cast<int>(i);
    }
    std::erase(pending_, ch);
    stats_.incr("master_registered");
    if (joined == Joined::kRejoinedInvalid) {
        // The crashed master is back (paper §III-D): it resumes mastership
        // and the stand-in steps down.
        stats_.incr("recoveries_detected");
        demote_stand_in();
        publish_slave_status();
    }
    repl_->on_master_registered(ch);
    repl_->on_membership_change();
}

void NicKv::register_slave(const net::ChannelPtr& ch, const NodeMsg& msg) {
    nic_.core(0).consume(costs_.event_dispatch);
    // The full "<name>@<ep>" identity names it, matching kSyncNotify.
    auto e = entry_for(ch, msg.body, msg.body, msg.field);
    if (!e.has_value()) return;
    // A known name is a reconnection after a crash: refresh and revalidate.
    const Joined joined = join(std::move(*e));
    if (joined == Joined::kNoMemory) return;
    std::erase(pending_, ch);
    repl_->on_slave_registered(msg.body, msg.field);
    assign_cores();
    stats_.incr(joined == Joined::kNew ? "slave_registered" : "slave_reregistered");

    // Paper Fig. 8 step 2: notify the master that a slave wants to sync.
    if (net::Channel* master = master_link()) {
        nic_.core(0).consume(costs_.event_dispatch);
        master->send(NodeMsg{NodeMsg::Type::kSyncNotify, msg.field, msg.body}.encode());
    }
    publish_slave_status();
    // A slave (re)joining a masterless cluster: the earlier invalidation
    // scan may have found nobody promotable, so retry the failover now.
    maybe_promote();
    repl_->on_membership_change();
}

void NicKv::fan_out(const NodeMsg& msg) {
    // Parse the replication request on the primary ARM core.
    nic_.core(0).consume(costs_.jittered(rng_, costs_.nic_repl_parse));
    if (tracer_ != nullptr && tracer_->enabled()) {
        // Span stage: master propagate -> NIC parse (offload request leg).
        tracer_->repl_fanout(msg.field, obs_track_);
    }
    fanout_offset_ = msg.field + static_cast<std::int64_t>(msg.body.size());
    repl_->replicate(msg);
    c_repl_requests_.incr();
}

// simlint:observe-only
std::vector<std::string> NicKv::chain_order() const {
    std::vector<std::string> out;
    for (const auto& e : nodes_) {
        if (NicReplication::live_slave(e)) out.push_back(e.name);
    }
    return out;
}

net::Channel* NicKv::master_link() {
    if (master_idx_ < 0) return nullptr;
    const net::ChannelPtr& ch = nodes_[static_cast<std::size_t>(master_idx_)].channel;
    return ch && ch->open() ? ch.get() : nullptr;
}

void NicKv::request_resync(const NodeEntry& e) {
    net::Channel* master = master_link();
    if (master == nullptr) return;
    master->send(NodeMsg{NodeMsg::Type::kResyncRequest, e.repl_offset, e.name}.encode());
    stats_.incr("resyncs_requested");
}

void NicKv::handle_probe_ack(const net::ChannelPtr& ch, const NodeMsg& msg) {
    stats_.incr("probe_acks_received");
    nic_.core(0).consume(costs_.event_dispatch);
    NodeEntry* e = find_by_channel(ch);
    if (e == nullptr) return;
    e->last_heard_ns = sim_.now().ns();
    // Body is "<role>:<offset>".
    const std::int64_t prev = e->prev_probe_offset;
    const auto colon = msg.body.find(':');
    if (colon != std::string::npos) {
        if (const auto off = kv::string2ll(msg.body.substr(colon + 1))) {
            e->repl_offset = *off;
        }
    }
    e->prev_probe_offset = e->repl_offset;
    if (!e->valid) {
        // Node recovered. Clear the invalid flag and, if it fell behind the
        // stream while dead, ask the master to serve it a resync.
        e->valid = true;
        stats_.incr("recoveries_detected");
        if (e->is_master) {
            // Paper §III-D: the recovered master resumes mastership and the
            // stand-in is demoted.
            demote_stand_in();
        } else if (e->repl_offset < fanout_offset_) {
            request_resync(*e);
        }
        publish_slave_status();
        maybe_promote(); // a slave revalidated into a masterless cluster
        repl_->on_membership_change();
    } else {
        repl_->on_probe_ack(*e, prev);
    }
}

void NicKv::probe_cycle(std::uint64_t epoch) {
    if (crashed_ || epoch != probe_epoch_) return;
    sim::NodeScope owner(endpoint());
    ++probe_round_;
    for (auto& e : nodes_) {
        if (!e.channel || !e.channel->open()) continue;
        nic_.core(0).consume(costs_.event_dispatch);
        e.channel->send(
            NodeMsg{NodeMsg::Type::kProbe,
                    static_cast<std::int64_t>(probe_round_), ""}
                .encode());
        stats_.incr("probes_sent");
    }
    // Give this round's replies `waiting_time` to come home.
    sim_.after(cfg_.waiting_time, [this]() { check_timeouts(); });
    sim_.after(cfg_.probe_interval, [this, epoch]() { probe_cycle(epoch); });
}

void NicKv::check_timeouts() {
    if (crashed_) return;
    bool changed = false;
    const std::int64_t now = sim_.now().ns();
    for (auto& e : nodes_) {
        if (!e.valid) continue;
        if (now - e.last_heard_ns > cfg_.waiting_time.ns() + cfg_.probe_interval.ns()) {
            e.valid = false;
            changed = true;
            stats_.incr("failures_detected");
        }
    }
    if (!changed) return;
    after_invalidation();
}

void NicKv::on_link_broken(const net::Channel* raw) {
    if (crashed_) return;
    // The reliable layer exhausted its retries: treat the node like a probe
    // timeout would, without waiting for one (gray links fail faster than
    // silent crashes).
    for (auto& e : nodes_) {
        if (e.channel.get() == raw && e.valid) {
            e.valid = false;
            // Keep the entry — its name/offset drive the resync once the
            // node re-registers — but release the dead channel: probing a
            // broken link is pointless and retaining it pins the whole
            // ring/QP graph.
            e.channel->close();
            e.channel.reset();
            stats_.incr("failures_detected");
            stats_.incr("links_broken");
            after_invalidation();
            return;
        }
    }
    // A pending (never-registered) connection died: close and forget it.
    std::erase_if(pending_, [raw](const net::ChannelPtr& p) {
        if (p.get() != raw) return false;
        p->close();
        return true;
    });
}

void NicKv::maybe_promote() {
    if (master_idx_ < 0 || nodes_[static_cast<std::size_t>(master_idx_)].valid ||
        promoted_idx_ >= 0) {
        return;
    }
    const int pick = repl_->pick_stand_in();
    if (pick >= 0) {
        promoted_idx_ = pick;
        nodes_[static_cast<std::size_t>(pick)].channel->send(
            NodeMsg{NodeMsg::Type::kPromote, 0, ""}.encode());
        stats_.incr("failovers");
    }
}

void NicKv::after_invalidation() {
    maybe_promote();
    publish_slave_status();
    repl_->on_membership_change();
}

void NicKv::publish_slave_status() {
    net::Channel* master = master_link();
    if (master == nullptr) return;
    std::string invalid;
    for (const auto& e : nodes_) {
        if (!e.is_master && !e.valid) {
            if (!invalid.empty()) invalid += ',';
            invalid += e.name;
        }
    }
    nic_.core(0).consume(costs_.event_dispatch);
    master->send(NodeMsg{NodeMsg::Type::kSlaveCount, valid_slaves(), invalid}.encode());
}

// --- replication half: the fan-out defaults ------------------------------------

void NicReplication::ship(const NodeEntry& e, const std::string& wire,
                          std::size_t body_bytes) const {
    n_->nic_.core(e.core_idx)
        .consume(costs().jittered(rng(), costs().nic_repl_fanout_per_slave) +
                 costs().copy_cost(body_bytes));
    e.channel->send(wire);
}

void NicReplication::resync_if_stalled(const NodeEntry& e, std::int64_t prev) const {
    // No progress for a whole round while behind: data its path never
    // re-delivers is lost (e.g. frames relayed while its chain predecessor
    // was dialing it). Fan-out's reliable links retransmit everything.
    if (e.is_master || e.repl_offset >= fanout_offset() || e.repl_offset != prev) {
        return;
    }
    request_resync(e);
    stats().incr("stall_resyncs");
}

} // namespace skv::offload
