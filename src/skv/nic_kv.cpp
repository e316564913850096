#include "skv/nic_kv.hpp"

#include <algorithm>

#include "kv/sds.hpp"
#include "rdma/ring_channel.hpp"
#include "sim/check.hpp"

namespace skv::offload {

using server::NodeMsg;

NicKv::NicKv(sim::Simulation& sim, const cpu::CostModel& costs,
             rdma::ConnectionManager& cm, nic::SmartNic& nic, NicKvConfig cfg)
    : sim_(sim), costs_(costs), cm_(cm), nic_(nic), cfg_(std::move(cfg)),
      rng_(sim.fork_rng()), stats_(cfg_.name),
      c_fanout_sends_(stats_.counter_handle("fanout_sends")),
      c_repl_requests_(stats_.counter_handle("repl_requests")) {}

void NicKv::start() {
    SKV_CHECK(!started_);
    started_ = true;
    // The NIC switch steers this service port up to the ARM cores.
    nic_.steer(cfg_.port, nic::SteerTarget::kNicCores);
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
    nic_.release_memory(cfg_.node_entry_bytes * nodes_.size());
    nodes_.clear();
    pending_.clear();
    master_idx_ = -1;
    promoted_idx_ = -1;
    fanout_offset_ = 0;
    quorum_watermark_ = 0;
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
    auto rel = server::ReliableChannel::wrap(sim_, std::move(ch),
                                             cfg_.reliable, &stats_);
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

NicKv::NodeEntry* NicKv::find_by_channel(const net::ChannelPtr& ch) {
    for (auto& n : nodes_) {
        if (n.channel == ch) return &n;
    }
    return nullptr;
}

NicKv::NodeEntry* NicKv::find_by_name(const std::string& name) {
    for (auto& n : nodes_) {
        if (n.name == name) return &n;
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
        case NodeMsg::Type::kQuorumAck:
            handle_quorum_ack(ch, msg);
            break;
        case NodeMsg::Type::kReadRepair:
            handle_read_repair(msg);
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
    const auto at = ident.find('@');
    NodeEntry e;
    e.name = ident.substr(0, at);
    e.ep = at == std::string::npos
               ? net::kInvalidEndpoint
               : static_cast<net::EndpointId>(std::stoul(ident.substr(at + 1)));
    e.channel = ch;
    e.is_master = true;
    e.last_heard_ns = sim_.now().ns();
    e.repl_offset = msg.field;
    fanout_offset_ = msg.field;

    bool was_invalid = false;
    if (NodeEntry* existing = find_by_name(e.name)) {
        was_invalid = !existing->valid;
        // The refreshed registration supersedes the old channel; close it
        // so the dead connection's object graph is released, not merely
        // unreferenced.
        if (existing->channel && existing->channel != e.channel) {
            existing->channel->close();
        }
        *existing = std::move(e);
    } else {
        if (!nic_.reserve_memory(cfg_.node_entry_bytes)) {
            stats_.incr("oom_rejects");
            return;
        }
        nodes_.push_back(std::move(e));
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].is_master) master_idx_ = static_cast<int>(i);
    }
    std::erase(pending_, ch);
    stats_.incr("master_registered");
    if (was_invalid) {
        // The crashed master is back (paper §III-D): it resumes mastership
        // and the stand-in steps down.
        stats_.incr("recoveries_detected");
        if (promoted_idx_ >= 0) {
            auto& stand_in = nodes_[static_cast<std::size_t>(promoted_idx_)];
            if (stand_in.channel && stand_in.channel->open()) {
                stand_in.channel->send(
                    NodeMsg{NodeMsg::Type::kDemote, 0, ""}.encode());
            }
            promoted_idx_ = -1;
        }
        publish_slave_status();
    }
    if (cfg_.replication_mode == server::ReplicationMode::kQuorum &&
        quorum_watermark_ > 0 && ch->open()) {
        // A (re)attaching master learns the current commit watermark at
        // once instead of waiting for the next ack-driven advance — parked
        // replies it re-accumulates would otherwise stall until new writes.
        nic_.core(0).consume(costs_.event_dispatch);
        ch->send(NodeMsg{NodeMsg::Type::kQuorumCommit, quorum_watermark_, ""}
                     .encode());
    }
    reconfigure_chain();
}

void NicKv::register_slave(const net::ChannelPtr& ch, const NodeMsg& msg) {
    nic_.core(0).consume(costs_.event_dispatch);
    const auto at = msg.body.find('@');
    NodeEntry e;
    e.name = msg.body; // full "<name>@<ep>" identity, matching kSyncNotify
    e.ep = at == std::string::npos
               ? net::kInvalidEndpoint
               : static_cast<net::EndpointId>(std::stoul(msg.body.substr(at + 1)));
    e.channel = ch;
    e.last_heard_ns = sim_.now().ns();
    e.repl_offset = msg.field;
    e.quorum_ack = msg.field; // registration offset = data it already holds

    bool was_known = false;
    if (NodeEntry* existing = find_by_name(e.name)) {
        // Reconnection after a crash: refresh the channel and revalidate.
        // The superseded channel is closed, releasing its ring/QP state.
        if (existing->channel && existing->channel != e.channel) {
            existing->channel->close();
        }
        *existing = std::move(e);
        was_known = true;
    } else {
        if (!nic_.reserve_memory(cfg_.node_entry_bytes)) {
            stats_.incr("oom_rejects");
            return;
        }
        nodes_.push_back(std::move(e));
    }
    std::erase(pending_, ch);
    assign_cores();
    stats_.incr(was_known ? "slave_reregistered" : "slave_registered");

    // Paper Fig. 8 step 2: notify the master that a slave wants to sync.
    if (master_idx_ >= 0) {
        auto& master = nodes_[static_cast<std::size_t>(master_idx_)];
        if (master.channel && master.channel->open()) {
            nic_.core(0).consume(costs_.event_dispatch);
            master.channel->send(
                NodeMsg{NodeMsg::Type::kSyncNotify, msg.field, msg.body}.encode());
        }
    }
    publish_slave_status();
    // A slave (re)joining a masterless cluster: the earlier invalidation
    // scan may have found nobody promotable, so retry the failover now.
    maybe_promote();
    reconfigure_chain();
}

void NicKv::fan_out(const NodeMsg& msg) {
    // Parse the replication request on the primary ARM core.
    nic_.core(0).consume(costs_.jittered(rng_, costs_.nic_repl_parse));
    if (tracer_ != nullptr && tracer_->enabled()) {
        // Span stage: master propagate -> NIC parse (offload request leg).
        tracer_->repl_fanout(msg.field, obs_track_);
    }
    fanout_offset_ = msg.field + static_cast<std::int64_t>(msg.body.size());
    if (cfg_.replication_mode == server::ReplicationMode::kChain) {
        chain_forward(msg);
    } else {
        const std::string wire = msg.encode();
        for (auto& e : nodes_) {
            if (e.is_master || !e.valid || !e.channel || !e.channel->open()) {
                continue;
            }
            // Copy into this slave's send buffer on its assigned ARM core,
            // then one WRITE_WITH_IMM per slave (paper Fig. 9 step 2).
            cpu::Core& core = nic_.core(e.core_idx);
            core.consume(costs_.jittered(rng_, costs_.nic_repl_fanout_per_slave) +
                         costs_.copy_cost(msg.body.size()));
            e.channel->send(wire);
            c_fanout_sends_.incr();
        }
    }
    c_repl_requests_.incr();
    if (cfg_.replication_mode == server::ReplicationMode::kQuorum) {
        // An injected zero-ack majority (split-brain self-test) advances the
        // watermark on the master's copy alone, i.e. right here; for a real
        // majority this recompute is a cheap no-op until acks arrive.
        recompute_quorum_watermark();
    }
}

void NicKv::chain_forward(const NodeMsg& msg) {
    // Chain mode's fan_out: a single send to the chain head (the first
    // valid member); members relay the frame downstream themselves, so the
    // NIC pays one hop regardless of chain length.
    for (auto& e : nodes_) {
        if (e.is_master || !e.valid || !e.channel || !e.channel->open()) {
            continue;
        }
        cpu::Core& core = nic_.core(e.core_idx);
        core.consume(costs_.jittered(rng_, costs_.nic_repl_fanout_per_slave) +
                     costs_.copy_cost(msg.body.size()));
        e.channel->send(
            NodeMsg{NodeMsg::Type::kChainData, msg.field, msg.body}.encode());
        c_fanout_sends_.incr();
        return;
    }
    // No live member: the write stays in the master's backlog and is served
    // to the next chain via resync; the master's commit gate holds it back
    // from clients meanwhile.
    stats_.incr("chain_no_head");
}

// simlint:observe-only
std::vector<std::string> NicKv::chain_order() const {
    std::vector<std::string> out;
    for (const auto& e : nodes_) {
        if (!e.is_master && e.valid && e.channel && e.channel->open()) {
            out.push_back(e.name);
        }
    }
    return out;
}

void NicKv::request_resync(const NodeEntry& e) {
    if (master_idx_ < 0) return;
    auto& master = nodes_[static_cast<std::size_t>(master_idx_)];
    if (!master.channel || !master.channel->open()) return;
    master.channel->send(
        NodeMsg{NodeMsg::Type::kResyncRequest, e.repl_offset, e.name}.encode());
    stats_.incr("resyncs_requested");
}

void NicKv::reconfigure_chain() {
    if (cfg_.replication_mode != server::ReplicationMode::kChain) return;
    // Splice the chain from the failure detector's view: valid members in
    // registration order, each told its successor ("" marks the tail). The
    // assignment carries the current fan-out cursor as the member's read
    // floor — a re-spliced-in laggard must not serve tail reads until it
    // has applied at least that much. While the master is down the chain
    // carries no commits (the promoted stand-in serves solo), so members
    // are told to leave ("-"): a leased tail would otherwise keep
    // answering reads that miss the stand-in's writes.
    std::vector<NodeEntry*> chain;
    for (auto& e : nodes_) {
        if (!e.is_master && e.valid && e.channel && e.channel->open()) {
            chain.push_back(&e);
        }
    }
    const bool feeding = master_valid();
    for (std::size_t i = 0; i < chain.size(); ++i) {
        std::string body;
        if (!feeding) {
            body = "-";
        } else if (i + 1 < chain.size()) {
            body = chain[i + 1]->name;
        }
        nic_.core(0).consume(costs_.event_dispatch);
        chain[i]->channel->send(
            NodeMsg{NodeMsg::Type::kChainSet, fanout_offset_, body}.encode());
    }
    stats_.incr("chain_reconfigs");
    // Ranges the old chain never relayed to a (re)joining member can only
    // come from the master's backlog.
    if (feeding) {
        for (auto* e : chain) {
            if (e->repl_offset < fanout_offset_) request_resync(*e);
        }
    }
}

int NicKv::quorum_slave_acks_needed() const {
    if (cfg_.quorum_slave_acks_override >= 0) {
        return cfg_.quorum_slave_acks_override;
    }
    // Replica set = master + every registered slave (fixed-n ABD). The
    // master's own copy counts toward the majority, so the NIC needs
    // majority(n) - 1 slave acks. Dead slaves stay in the denominator:
    // shrinking it on failure would silently weaken the quorum.
    const int replicas = 1 + static_cast<int>(slave_count());
    return replicas / 2 + 1 - 1;
}

void NicKv::handle_quorum_ack(const net::ChannelPtr& ch, const NodeMsg& msg) {
    if (cfg_.replication_mode != server::ReplicationMode::kQuorum) {
        stats_.incr("unexpected_msgs");
        return;
    }
    nic_.core(0).consume(costs_.event_dispatch);
    NodeEntry* e = find_by_channel(ch);
    if (e == nullptr || e->is_master) return;
    e->quorum_ack = std::max(e->quorum_ack, msg.field);
    e->repl_offset = std::max(e->repl_offset, msg.field);
    stats_.incr("quorum_acks");
    recompute_quorum_watermark();
}

void NicKv::recompute_quorum_watermark() {
    const int need = quorum_slave_acks_needed();
    std::int64_t mark = 0;
    if (need <= 0) {
        // The master's copy alone is a majority (solo bootstrap, or the
        // injected split-brain override).
        mark = fanout_offset_;
    } else {
        std::vector<std::int64_t> acks;
        for (const auto& e : nodes_) {
            if (!e.is_master) acks.push_back(e.quorum_ack);
        }
        if (static_cast<int>(acks.size()) < need) return;
        std::sort(acks.begin(), acks.end(), std::greater<>());
        mark = acks[static_cast<std::size_t>(need - 1)];
    }
    if (mark <= quorum_watermark_) return;
    quorum_watermark_ = mark;
    if (master_idx_ < 0) return;
    auto& master = nodes_[static_cast<std::size_t>(master_idx_)];
    if (!master.channel || !master.channel->open()) return;
    nic_.core(0).consume(costs_.event_dispatch);
    master.channel->send(
        NodeMsg{NodeMsg::Type::kQuorumCommit, quorum_watermark_, ""}.encode());
    stats_.incr("quorum_commits");
}

void NicKv::handle_read_repair(const NodeMsg& msg) {
    if (cfg_.replication_mode != server::ReplicationMode::kQuorum) {
        stats_.incr("unexpected_msgs");
        return;
    }
    // ABD read phase 2: the master pushed the not-yet-majority backlog
    // suffix; re-fan it to replicas that have not acknowledged it. Overlap
    // with data already applied is harmless (stale-skip on the slave).
    nic_.core(0).consume(costs_.jittered(rng_, costs_.nic_repl_parse));
    const std::int64_t end =
        msg.field + static_cast<std::int64_t>(msg.body.size());
    const std::string wire =
        NodeMsg{NodeMsg::Type::kReplData, msg.field, msg.body}.encode();
    for (auto& e : nodes_) {
        if (e.is_master || !e.valid || !e.channel || !e.channel->open()) {
            continue;
        }
        if (e.quorum_ack >= end) continue;
        cpu::Core& core = nic_.core(e.core_idx);
        core.consume(costs_.jittered(rng_, costs_.nic_repl_fanout_per_slave) +
                     costs_.copy_cost(msg.body.size()));
        e.channel->send(wire);
        stats_.incr("read_repair_sends");
    }
    stats_.incr("read_repairs");
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
            if (promoted_idx_ >= 0) {
                auto& stand_in = nodes_[static_cast<std::size_t>(promoted_idx_)];
                if (stand_in.channel && stand_in.channel->open()) {
                    stand_in.channel->send(
                        NodeMsg{NodeMsg::Type::kDemote, 0, ""}.encode());
                }
                promoted_idx_ = -1;
            }
        } else if (e->repl_offset < fanout_offset_) {
            request_resync(*e);
        }
        publish_slave_status();
        maybe_promote(); // a slave revalidated into a masterless cluster
        reconfigure_chain();
    } else if (!e->is_master &&
               cfg_.replication_mode != server::ReplicationMode::kFanout &&
               e->repl_offset < fanout_offset_ && e->repl_offset == prev) {
        // Chain/quorum stall healing: a valid member that made zero
        // progress over a full probe round while behind the cursor lost
        // data its path never re-delivers (e.g. frames relayed while its
        // chain predecessor was dialing it). Fan-out mode is excluded — the
        // reliable links already retransmit everything it sends.
        request_resync(*e);
        stats_.incr("stall_resyncs");
    }
}

void NicKv::probe_cycle(std::uint64_t epoch) {
    if (crashed_ || epoch != probe_epoch_) return;
    sim::NodeScope owner(endpoint());
    ++probe_round_;
    for (auto& e : nodes_) {
        if (!e.channel || !e.channel->open()) continue;
        nic_.core(0).consume(costs_.event_dispatch);
        e.probe_seq = probe_round_;
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
    // Failover: pick an available slave as the stand-in master. The
    // choice is protocol-specific: fan-out keeps the historical
    // first-valid pick and chain promotes its head (upstream members
    // hold a superset of everything downstream — for fan-out the first
    // valid slave IS the head, so the rules coincide); quorum promotes
    // the most caught-up replica its ack aggregation knows about.
    int pick = -1;
    if (cfg_.replication_mode == server::ReplicationMode::kQuorum) {
        std::int64_t best = -1;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            const auto& n = nodes_[i];
            if (n.is_master || !n.valid || !n.channel) continue;
            const std::int64_t off = std::max(n.quorum_ack, n.repl_offset);
            if (off > best) {
                best = off;
                pick = static_cast<int>(i);
            }
        }
    } else {
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (!nodes_[i].is_master && nodes_[i].valid && nodes_[i].channel) {
                pick = static_cast<int>(i);
                break;
            }
        }
    }
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
    reconfigure_chain();
}

void NicKv::publish_slave_status() {
    if (master_idx_ < 0) return;
    auto& master = nodes_[static_cast<std::size_t>(master_idx_)];
    if (!master.channel || !master.channel->open()) return;
    std::string invalid;
    for (const auto& e : nodes_) {
        if (!e.is_master && !e.valid) {
            if (!invalid.empty()) invalid += ',';
            invalid += e.name;
        }
    }
    nic_.core(0).consume(costs_.event_dispatch);
    master.channel->send(
        NodeMsg{NodeMsg::Type::kSlaveCount, valid_slaves(), invalid}.encode());
}

} // namespace skv::offload
