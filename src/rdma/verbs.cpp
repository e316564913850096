#include "rdma/verbs.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace skv::rdma {

const char* to_string(Opcode op) {
    switch (op) {
        case Opcode::kSend: return "SEND";
        case Opcode::kWrite: return "WRITE";
        case Opcode::kWriteWithImm: return "WRITE_WITH_IMM";
        case Opcode::kRecv: return "RECV";
    }
    return "?";
}

// --- MemoryRegion -----------------------------------------------------------

MemoryRegion::MemoryRegion(std::uint32_t rkey, std::size_t size)
    : rkey_(rkey), size_(size), pages_((size + kPageBytes - 1) / kPageBytes) {
    SKV_CHECK(size > 0);
    ++live_count_;
}

MemoryRegion::~MemoryRegion() {
    if (registry_ != nullptr) registry_->mrs_[rkey_ - 1] = nullptr;
    --live_count_;
}

template <typename Fn>
void MemoryRegion::for_each_run(std::size_t offset, std::size_t len, Fn&& fn) const {
    while (len > 0) {
        const std::size_t in_page = offset % kPageBytes;
        const std::size_t n = std::min({len, kPageBytes - in_page, size_ - offset});
        fn(offset / kPageBytes, in_page, n);
        len -= n;
        offset += n;
        if (offset == size_) offset = 0;
    }
}

void MemoryRegion::store(std::size_t offset, std::string_view bytes) {
    const char* src = bytes.data();
    for_each_run(offset, bytes.size(), [&](std::size_t page, std::size_t at, std::size_t n) {
        auto& p = pages_[page];
        if (!p) p = std::make_unique<char[]>(std::min(kPageBytes, size_ - page * kPageBytes));
        std::copy(src, src + n, p.get() + at);
        src += n;
    });
}

void MemoryRegion::write(std::size_t offset, std::string_view bytes) {
    SKV_DCHECK(offset + bytes.size() <= size_, "MR write out of bounds");
    store(offset, bytes);
}

std::string MemoryRegion::read(std::size_t offset, std::size_t len) const {
    SKV_DCHECK(offset + len <= size_, "MR read out of bounds");
    return read_wrapped(offset, len);
}

void MemoryRegion::write_wrapped(std::size_t offset, std::string_view bytes) {
    SKV_DCHECK(bytes.size() <= size_);
    store(offset % size_, bytes);
}

std::string MemoryRegion::read_wrapped(std::size_t offset, std::size_t len) const {
    std::string out;
    out.reserve(len);
    append_wrapped(offset, len, out);
    return out;
}

char MemoryRegion::at_wrapped(std::size_t offset) const {
    offset %= size_;
    const auto& p = pages_[offset / kPageBytes];
    return p ? p[offset % kPageBytes] : '\0';
}

void MemoryRegion::append_wrapped(std::size_t offset, std::size_t len,
                                  std::string& out) const {
    SKV_DCHECK(len <= size_);
    // One growth step for the whole span, as a single append would take,
    // not one per page.
    if (out.capacity() - out.size() < len) {
        out.reserve(std::max(out.size() + len, 2 * out.capacity()));
    }
    for_each_run(offset % size_, len, [&](std::size_t page, std::size_t at, std::size_t n) {
        if (const auto& p = pages_[page]) {
            out.append(p.get() + at, n);
        } else {
            out.append(n, '\0');
        }
    });
}

// --- CompletionChannel / CompletionQueue ------------------------------------

void CompletionChannel::fire() {
    if (!armed_ || !on_event_) return;
    armed_ = false;
    // Deliver asynchronously so CQ pushes from inside a handler cannot
    // reenter the handler.
    sim_.after(sim::Duration::zero(), on_event_);
}

void CompletionQueue::push(Completion c) {
    queue_.push_back(std::move(c));
    if (channel_) channel_->fire();
}

std::vector<Completion> CompletionQueue::poll() {
    std::vector<Completion> out;
    drain([&out](const Completion& c) { out.push_back(c); });
    return out;
}

// --- RdmaNetwork -------------------------------------------------------------

RdmaNetwork::RdmaNetwork(sim::Simulation& sim, net::Fabric& fabric,
                         const cpu::CostModel& costs)
    : sim_(sim), fabric_(fabric), costs_(costs), rng_(sim.fork_rng()),
      c_wr_posts_(obs_.counter_handle("wr_posts")) {}

RdmaNetwork::~RdmaNetwork() {
    for (MemoryRegion* mr : mrs_) {
        if (mr != nullptr) mr->registry_ = nullptr;
    }
}

MemoryRegionPtr RdmaNetwork::register_mr(net::NodeRef node, std::size_t size) {
    const auto rkey = static_cast<std::uint32_t>(mrs_.size() + 1);
    auto mr = std::make_shared<MemoryRegion>(rkey, size);
    mr->registry_ = this;
    mrs_.push_back(mr.get());
    if (node.core) node.core->consume(costs_.mr_register);
    return mr;
}

void RdmaNetwork::deregister_mr(std::uint32_t rkey) {
    if (MemoryRegion* mr = find_mr(rkey)) {
        mr->registry_ = nullptr;
        mrs_[rkey - 1] = nullptr;
    }
}

MemoryRegionPtr RdmaNetwork::lookup_mr(std::uint32_t rkey) const {
    MemoryRegion* mr = find_mr(rkey);
    return mr != nullptr ? mr->shared_from_this() : nullptr;
}

sim::Duration RdmaNetwork::wr_post_cost(net::EndpointId ep) {
    if (fabric_.is_companion(ep)) {
        // On-die doorbell from the SmartNIC's ARM cores: no PCIe crossing.
        return costs_.jittered(rng_, costs_.wr_post.scaled(0.6));
    }
    sim::Duration cost = costs_.jittered(rng_, costs_.wr_post);
    if (rng_.next_bool(costs_.wr_stall_prob)) cost += costs_.wr_stall;
    return cost;
}

sim::Duration RdmaNetwork::recv_post_cost() { return costs_.recv_post; }

// --- QueuePair ----------------------------------------------------------------

QueuePair::QueuePair(RdmaNetwork& net, net::NodeRef self,
                     CompletionQueuePtr send_cq, CompletionQueuePtr recv_cq)
    : net_(net), self_(self), send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {
    SKV_CHECK(self_.valid());
    SKV_CHECK(send_cq_ && recv_cq_);
    ++live_count_;
}

void QueuePair::connect_to(const QueuePairPtr& peer) {
    SKV_CHECK(peer && peer.get() != this);
    peer_ = peer;
}

void QueuePair::disconnect() { peer_.reset(); }

void QueuePair::post_recv(std::uint64_t wr_id, MemoryRegionPtr mr,
                          std::size_t offset, std::size_t len) {
    SKV_CHECK(mr);
    self_.core->consume(net_.recv_post_cost());
    recv_queue_.push_back(RecvWqe{wr_id, std::move(mr), offset, len});
    // A receive arriving while the RNR queue is non-empty unblocks the
    // oldest stalled inbound message (retransmission after RNR NAK).
    if (!rnr_queue_.empty()) {
        Inbound in = std::move(rnr_queue_.front());
        rnr_queue_.pop_front();
        consume_recv(std::move(in));
    }
}

void QueuePair::post_send(SendWr wr) {
    net_.c_wr_posts_.incr();
    auto peer = peer_.lock();
    if (!peer) {
        self_.core->consume(net_.wr_post_cost(self_.ep));
        if (wr.signaled) {
            send_cq_->push(Completion{.wr_id = wr.wr_id, .op = wr.op,
                                      .success = false, .inline_payload = {}});
        }
        return;
    }

    const std::size_t wire_bytes = wr.payload.size() + RdmaNetwork::kHeaderBytes;

    Inbound in;
    in.op = wr.op;
    in.payload = std::move(wr.payload);
    in.rkey = wr.rkey;
    in.remote_offset = wr.remote_offset;
    in.wrapped = wr.wrapped;
    in.has_imm = wr.has_imm;
    in.imm = wr.imm;

    const std::uint64_t wr_id = wr.wr_id;
    const Opcode op = wr.op;
    const bool signaled = wr.signaled;
    auto self = shared_from_this();

    // WQE build + doorbell on the posting core; the message leaves the NIC
    // once the doorbell has rung. This per-WR cost is what the paper counts
    // per slave in the baseline and once per write in SKV.
    self_.core->submit(net_.wr_post_cost(self_.ep), [self, peer, in = std::move(in),
                                             wire_bytes, wr_id, op,
                                             signaled]() mutable {
        self->launch(std::move(peer), std::move(in), wire_bytes, wr_id, op,
                     signaled);
    });
}

void QueuePair::launch(QueuePairPtr peer, Inbound in, std::size_t wire_bytes,
                       std::uint64_t wr_id, Opcode op, bool signaled) {
    auto self = shared_from_this();
    const net::EndpointId to = peer->self_.ep;
    net_.fabric().send(
        self_.ep, to, wire_bytes,
        [self, peer = std::move(peer), in = std::move(in), wr_id, op,
         signaled]() mutable {
            peer->arrive(std::move(in));
            if (signaled) {
                // Hardware ACK flows back; the send completion needs no
                // remote CPU.
                self->net_.simulation().after(RdmaNetwork::kAckLatency, [self, wr_id, op]() {
                    Completion c;
                    c.wr_id = wr_id;
                    c.op = op;
                    self->send_cq_->push(std::move(c));
                });
            }
        });
}

void QueuePair::arrive(Inbound in) {
    switch (in.op) {
        case Opcode::kWrite:
        case Opcode::kWriteWithImm: {
            MemoryRegion* mr = net_.find_mr(in.rkey);
            if (mr == nullptr) {
                // The target was deregistered while the WRITE was on the
                // wire (channel closed mid-flight). Hardware would raise a
                // remote-access error; the sim drops the op and counts it.
                net_.count_unknown_mr_write();
                break;
            }
            if (in.wrapped) {
                mr->write_wrapped(in.remote_offset, in.payload);
            } else {
                mr->write(in.remote_offset, in.payload);
            }
            // Plain WRITE is invisible to the remote CPU: no completion.
            if (in.op == Opcode::kWriteWithImm) consume_recv(std::move(in));
            break;
        }
        case Opcode::kSend:
            consume_recv(std::move(in));
            break;
        case Opcode::kRecv:
            SKV_UNREACHABLE("unexpected inbound opcode");
            break;
    }
}

void QueuePair::consume_recv(Inbound in) {
    if (recv_queue_.empty()) {
        // Receiver-not-ready: the message waits for the next posted recv
        // (the RC retransmit protocol hides this from the sender).
        rnr_queue_.push_back(std::move(in));
        return;
    }
    RecvWqe wqe = std::move(recv_queue_.front());
    recv_queue_.pop_front();

    Completion c;
    c.wr_id = wqe.wr_id;
    c.op = Opcode::kRecv;
    c.has_imm = in.has_imm;
    c.imm = in.imm;
    c.byte_len = static_cast<std::uint32_t>(in.payload.size());
    c.remote_offset = in.remote_offset;
    if (in.op == Opcode::kSend) {
        // SEND lands in the posted receive buffer.
        const std::size_t n = std::min(in.payload.size(), wqe.len);
        if (wqe.mr && n > 0) {
            wqe.mr->write(wqe.offset, std::string_view(in.payload).substr(0, n));
        }
        c.inline_payload = std::move(in.payload);
    }
    recv_cq_->push(std::move(c));
}

} // namespace skv::rdma
