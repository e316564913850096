#include "rdma/ring_channel.hpp"

#include <algorithm>
#include <utility>

#include "net/wire.hpp"
#include "sim/check.hpp"

namespace skv::rdma {

RingChannel::RingChannel(RdmaNetwork& net, net::NodeRef self,
                         net::EndpointId peer)
    : net_(net), self_(self), peer_(peer), rng_(net.simulation().fork_rng()) {}

void RingChannel::init_local() {
    channel_ = std::make_shared<CompletionChannel>(net_.simulation());
    send_cq_ = std::make_shared<CompletionQueue>(channel_);
    recv_cq_ = std::make_shared<CompletionQueue>(channel_);
    recv_mr_ = net_.register_mr(self_, kRingBytes);
    auto weak = weak_from_this();
    channel_->set_on_event([weak]() {
        if (auto self = weak.lock()) self->on_cq_event();
    });
    channel_->req_notify();
}

void RingChannel::attach(QueuePairPtr own_qp, std::uint32_t remote_rkey,
                         std::size_t remote_capacity) {
    SKV_CHECK(own_qp);
    qp_ = std::move(own_qp);
    remote_rkey_ = remote_rkey;
    remote_capacity_ = remote_capacity;
    free_space_ = remote_capacity;
    replenish_recvs();
    pump_backlog();
}

void RingChannel::replenish_recvs() {
    // Posted-receive low/high water marks: once no more than kLowWater
    // receives remain posted, top them back up to kBatch.
    constexpr std::size_t kBatch = 64;
    constexpr std::size_t kLowWater = 16;
    if (!qp_) return;
    if (posted_recvs_ > kLowWater) return;
    while (posted_recvs_ < kBatch) {
        // Receives for WRITE_WITH_IMM carry no buffer (the data already
        // landed in the ring); credit SENDs are small control frames.
        qp_->post_recv(next_wr_id_++, recv_mr_, 0, 0);
        ++posted_recvs_;
    }
}

void RingChannel::send(std::string_view payload) {
    if (!open_) return;
    // Fragment large messages so a frame always fits the ring with room
    // for flow control to make progress.
    std::size_t off = 0;
    do {
        const std::size_t n = std::min(kMaxFragment, payload.size() - off);
        const bool final = off + n == payload.size();
        std::string frame;
        frame.reserve(n + 1);
        frame.push_back(final ? kFinal : kMore);
        frame.append(payload.substr(off, n));
        off += n;
        if (qp_ && backlog_.empty() && frame.size() <= free_space_) {
            transmit(std::move(frame));
        } else {
            backlog_bytes_ += frame.size();
            backlog_.push_back(std::move(frame));
        }
    } while (off < payload.size());
}

void RingChannel::pump_backlog() {
    while (qp_ && !backlog_.empty() && backlog_.front().size() <= free_space_) {
        std::string payload = std::move(backlog_.front());
        backlog_.pop_front();
        backlog_bytes_ -= payload.size();
        transmit(std::move(payload));
    }
}

void RingChannel::transmit(std::string payload) {
    const std::size_t len = payload.size();
    SKV_DCHECK(len <= free_space_);
    free_space_ -= len;
    sent_total_ += len;
    SendWr wr;
    wr.wr_id = next_wr_id_++;
    wr.op = Opcode::kWriteWithImm;
    wr.payload = std::move(payload);
    wr.rkey = remote_rkey_;
    wr.remote_offset = write_cursor_;
    wr.wrapped = true;
    wr.has_imm = true;
    wr.imm = static_cast<std::uint32_t>(len);
    // Selective signaling: ring progress is tracked by credits, so data
    // frames need no send completion — the CPU never touches them again.
    wr.signaled = false;
    write_cursor_ = (write_cursor_ + len) % remote_capacity_;
    ++frames_sent_;
    qp_->post_send(std::move(wr));
}

void RingChannel::on_cq_event() {
    if (!open_) return;
    // A halted (crashed) host consumes no completions, but the channel
    // must stay armed so completions arriving after a restart still wake
    // the owner (fire() disarmed it before calling us).
    if (self_.core->halted()) {
        channel_->req_notify();
        return;
    }
    // The completion event wakes the owner; CQ processing runs as one task
    // on the owner's core (ibv_get_cq_event + ibv_poll_cq + ack + re-arm).
    if (cq_task_scheduled_) return;
    cq_task_scheduled_ = true;
    // Completion-channel wakeup span: event fire -> CQ drain task running
    // (the scheduling gap is the "wakeup" the paper's event-driven master
    // pays instead of burning a polling core).
    obs::Tracer* tracer = net_.tracer();
    const bool traced = tracer != nullptr && tracer->enabled();
    const sim::SimTime fired_at = net_.simulation().now();
    if (traced && obs_track_ == UINT32_MAX) {
        obs_track_ = tracer->track("cq/" + net_.fabric().name_of(self_.ep));
    }
    auto self = shared_from_this();
    self_.core->submit(
        net_.costs().jittered(rng_, net_.costs().completion_handle),
        [self, traced, fired_at]() {
            self->cq_task_scheduled_ = false;
            if (traced) {
                if (obs::Tracer* t = self->net_.tracer()) {
                    t->complete(self->obs_track_, obs::Stage::kCqWakeup,
                                fired_at, self->net_.simulation().now());
                }
            }
            if (!self->open_) return;
            self->batch_data_bytes_ = 0;
            RingChannel* ring = self.get();
            ring->recv_cq_->drain(
                [ring](const Completion& c) { ring->handle_completion(c); });
            if (!self->open_) return; // handler closed us mid-batch
            // If one batch drained (almost) the sender's whole window, the
            // ring had filled: per the paper's protocol the receive MR is
            // re-registered before its information is announced again.
            if (self->batch_data_bytes_ + kCreditThreshold >= kRingBytes) {
                self->self_.core->consume(self->net_.costs().mr_register);
                ++self->reregs_;
            }
            // Data frames are unsignaled (selective signaling), so the send
            // CQ only ever holds failed-post completions for credit SENDs;
            // the credit protocol already recovers those via the next credit.
            self->send_cq_->clear();
            self->channel_->req_notify();
            self->replenish_recvs();
        });
}

void RingChannel::handle_completion(const Completion& c) {
    // A handler invoked from handle_data may close this channel while the
    // polled batch is still being walked; later entries must be ignored.
    if (!open_) return;
    if (c.op != Opcode::kRecv) return;
    if (!c.success) return;
    SKV_DCHECK(posted_recvs_ > 0);
    --posted_recvs_;
    if (c.has_imm) {
        handle_data(c);
    } else {
        // Credit-return SEND carrying the peer's cumulative consumed total
        // (8 bytes, little-endian; a short frame's missing high bytes read
        // as zero). Duplicates and reordered stale credits carry a lower
        // total and are ignored; a lost credit is recovered by the next one.
        const std::uint64_t total = net::get_le(c.inline_payload, 0);
        if (total > credited_total_ && total <= sent_total_) {
            credited_total_ = total;
            const std::uint64_t outstanding = sent_total_ - credited_total_;
            free_space_ = remote_capacity_ -
                          std::min<std::uint64_t>(outstanding, remote_capacity_);
            pump_backlog();
        }
    }
}

void RingChannel::handle_data(const Completion& c) {
    const std::uint32_t len = c.imm;
    const std::size_t cap = kRingBytes;
    const std::size_t off = static_cast<std::size_t>(c.remote_offset) % cap;
    if (off != read_cursor_) {
        // The sender wrote this frame somewhere other than our cursor. If
        // the offset is (cyclically) behind us this is a duplicated frame we
        // already consumed; ignore it entirely. If it is ahead, every frame
        // in between was lost: account the hole as consumed (so the sender's
        // window recovers), resync the cursor, and poison reassembly until
        // the next message boundary.
        const std::size_t gap = (off + cap - read_cursor_) % cap;
        if (gap > cap / 2) return;
        lost_gap_bytes_ += gap;
        total_consumed_ += gap;
        consumed_since_credit_ += gap;
        batch_data_bytes_ += gap;
        read_cursor_ = off;
        reassembly_.clear();
        discard_until_final_ = true;
    }
    const std::size_t at = read_cursor_;
    read_cursor_ = (read_cursor_ + len) % cap;
    total_consumed_ += len;
    consumed_since_credit_ += len;
    batch_data_bytes_ += len;
    ++frames_received_;
    maybe_return_credits();
    if (len == 0) return;
    const char flag = recv_mr_->at_wrapped(at);
    if (discard_until_final_) {
        // This frame may be the tail of a message whose head fell into the
        // hole; drop up to and including the next boundary and let the
        // reliable layer above retransmit the affected messages.
        if (flag == kFinal) discard_until_final_ = false;
        return;
    }
    recv_mr_->append_wrapped(at + 1, len - 1, reassembly_);
    if (flag != kFinal) return;
    std::string payload = std::move(reassembly_);
    reassembly_.clear();
    deliver(std::move(payload));
}

void RingChannel::maybe_return_credits() {
    if (!qp_) return; // torn down mid-batch
    if (consumed_since_credit_ < kCreditThreshold) return;
    SendWr wr;
    wr.wr_id = next_wr_id_++;
    wr.op = Opcode::kSend;
    net::put_le(wr.payload, total_consumed_);
    consumed_since_credit_ = 0;
    ++credit_msgs_;
    qp_->post_send(std::move(wr));
}

void RingChannel::close() {
    if (!open_) return;
    open_ = false;
    net_.simulation().trace().note(sim::TraceEvent::kChannelClose,
                                   net_.simulation().now(), self_.ep, peer_);
    if (qp_) qp_->disconnect();
    backlog_.clear();
    backlog_bytes_ = 0;
    drop_pending();
    reassembly_.clear();
    // Drop the rkey registry entry: WRITEs still on the wire toward this
    // ring are discarded by the transport (remote-access error in hardware).
    // recv_mr_ itself stays until the ring dies — in-flight CM handshake
    // callbacks may still query recv_mr()->rkey().
    if (recv_mr_) net_.deregister_mr(recv_mr_->rkey());
    if (has_handler() || qp_ || channel_) {
        net_.simulation().trace().note(sim::TraceEvent::kHandlerClear,
                                       net_.simulation().now(), self_.ep, peer_);
        // close() may be running inside the message handler (a server
        // tearing down the connection it is serving) or inside the CQ task
        // that still touches qp_/channel_ after handle_completion returns.
        // Defer the release one sim event; open_ == false already cuts off
        // all delivery and posting.
        auto self = shared_from_this();
        net_.simulation().after(sim::Duration::zero(), [self]() {
            self->set_on_message(nullptr);
            self->qp_.reset();
            if (self->channel_) self->channel_->set_on_event(nullptr);
        });
    }
}

} // namespace skv::rdma
