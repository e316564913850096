#include "server/reliable.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/check.hpp"

namespace skv::server {

namespace {

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
}

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
}

std::uint64_t get_u64(std::string_view in, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
             << (i * 8);
    }
    return v;
}

std::uint32_t get_u32(std::string_view in, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
             << (i * 8);
    }
    return v;
}

/// Up to 8 bytes as a little-endian integer, missing high bytes zero.
std::uint64_t load_lane(const char* p, std::size_t n) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, n);
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    return v;
}

constexpr char kData = 'D';
constexpr char kAck = 'A';
constexpr std::size_t kDataHeader = 1 + 8 + 4;
constexpr std::size_t kAckFrame = 1 + 8;

} // namespace

std::uint32_t ReliableChannel::checksum(std::string_view bytes) {
    // Not a CRC and not cryptographic: it rejects ring frames truncated or
    // garbled by reassembly across a loss hole. Each 8-byte lane is folded
    // in with an xor, an odd multiply and an xor-shift, all invertible, so
    // equal-length inputs that differ in one lane always differ in the
    // 64-bit state; the length seeds the state so a truncated frame does
    // not match its zero-padded tail. A murmur3 finalizer cuts it to 32 bits.
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
    const auto fold = [](std::uint64_t h, std::uint64_t lane) {
        h = (h ^ lane) * kMul;
        return h ^ (h >> 32);
    };
    std::uint64_t h = bytes.size();
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) h = fold(h, load_lane(bytes.data() + i, 8));
    if (i < bytes.size()) h = fold(h, load_lane(bytes.data() + i, bytes.size() - i));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<std::uint32_t>(h);
}

std::shared_ptr<ReliableChannel> ReliableChannel::wrap(sim::Simulation& sim,
                                                       net::ChannelPtr inner,
                                                       ReliableParams params,
                                                       obs::Registry* reg) {
    SKV_CHECK(inner);
    auto ch = std::shared_ptr<ReliableChannel>(
        new ReliableChannel(sim, std::move(inner), params));
    ch->rto_ = params.initial_rto;
    if (reg != nullptr) {
        ch->c_retransmits_ = reg->counter_handle("rel.retransmits");
        ch->c_dups_ = reg->counter_handle("rel.dups_suppressed");
        ch->c_crc_drops_ = reg->counter_handle("rel.crc_drops");
        ch->c_acks_ = reg->counter_handle("rel.acks_sent");
        ch->reg_ = reg;
    }
    std::weak_ptr<ReliableChannel> weak = ch;
    ch->inner_->set_on_message([weak](std::string payload) {
        if (auto self = weak.lock()) self->on_inner_message(std::move(payload));
    });
    return ch;
}

void ReliableChannel::send(std::string_view payload) {
    if (closed_ || broken_) return;
    std::string& wire = unacked_.emplace_back(Unacked{next_seq_, {}, 0}).wire;
    wire.reserve(kDataHeader + payload.size());
    wire.push_back(kData);
    put_u64(wire, next_seq_);
    put_u32(wire, checksum(payload));
    wire.append(payload);
    ++next_seq_;
    inner_->send(wire);
    arm_rto();
}

void ReliableChannel::arm_rto() {
    if (rto_armed_ || unacked_.empty() || closed_ || broken_) return;
    rto_armed_ = true;
    const std::uint64_t epoch = ++rto_epoch_;
    auto self = shared_from_this();
    sim_.after(rto_, [self, epoch]() { self->on_rto(epoch); });
}

void ReliableChannel::on_rto(std::uint64_t epoch) {
    if (epoch != rto_epoch_ || closed_ || broken_) return;
    rto_armed_ = false;
    if (unacked_.empty()) return;
    if (inner_->backlog_bytes() > 0) {
        // The transport is still draining (e.g. a multi-megabyte snapshot
        // squeezing through the ring window): the message may not even have
        // hit the wire yet. Re-arm without burning a retry or duplicating
        // bytes into an already-congested pipe.
        arm_rto();
        return;
    }
    Unacked& oldest = unacked_.front();
    if (oldest.retries >= params_.max_retries) {
        broken_ = true;
        if (on_broken_) on_broken_();
        return;
    }
    ++oldest.retries;
    ++retransmits_;
    c_retransmits_.incr();
    inner_->send(oldest.wire);
    rto_ = std::min(
        sim::Duration(static_cast<std::int64_t>(
            static_cast<double>(rto_.ns()) * params_.backoff)),
        params_.max_rto);
    arm_rto();
}

void ReliableChannel::on_inner_message(std::string payload) {
    if (closed_) return;
    if (payload.size() >= kAckFrame && payload[0] == kAck) {
        const std::uint64_t cum = get_u64(payload, 1);
        bool progressed = false;
        while (!unacked_.empty() && unacked_.front().seq <= cum) {
            unacked_.pop_front();
            progressed = true;
        }
        if (progressed) {
            // Fresh progress: restart backoff and re-time from now.
            rto_ = params_.initial_rto;
            ++rto_epoch_; // cancel the outstanding timer logically
            rto_armed_ = false;
            arm_rto();
        }
        return;
    }
    if (payload.size() >= kDataHeader && payload[0] == kData) {
        const std::uint64_t seq = get_u64(payload, 1);
        const std::uint32_t sum = get_u32(payload, 9);
        payload.erase(0, kDataHeader);
        if (checksum(payload) != sum) {
            // Truncated/garbled reassembly under injected loss: drop and let
            // the ack (not covering this seq) trigger a retransmission.
            ++crc_drops_;
            c_crc_drops_.incr();
            schedule_ack(/*immediate=*/true);
            return;
        }
        handle_data(seq, std::move(payload));
        return;
    }
    // Not a reliable frame at all — garbage from a loss hole.
    ++crc_drops_;
    c_crc_drops_.incr();
}

void ReliableChannel::handle_data(std::uint64_t seq, std::string payload) {
    if (seq <= delivered_seq_) {
        // Retransmission of something we already have: the sender missed an
        // ack. Re-ack immediately so it stops.
        ++dups_suppressed_;
        c_dups_.incr();
        schedule_ack(/*immediate=*/true);
        return;
    }
    if (seq == delivered_seq_ + 1) {
        delivered_seq_ = seq;
        deliver(std::move(payload));
        // Drain consecutive buffered successors.
        auto it = reorder_.begin();
        while (it != reorder_.end() && it->first == delivered_seq_ + 1) {
            delivered_seq_ = it->first;
            deliver(std::move(it->second));
            it = reorder_.erase(it);
        }
        schedule_ack(/*immediate=*/false);
        return;
    }
    // A hole precedes this message: hold it and tell the sender where we
    // are so the missing one is retransmitted promptly.
    if (reorder_.size() < params_.reorder_window) {
        reorder_.emplace(seq, std::move(payload));
    } else {
        // Dropped; retransmission will restore order.
        ++reorder_overflows_;
        if (reg_ != nullptr) reg_->incr("rel.reorder_overflows");
    }
    schedule_ack(/*immediate=*/true);
}

void ReliableChannel::deliver(std::string payload) {
    if (on_message_) {
        on_message_(std::move(payload));
    } else {
        pending_.push_back(std::move(payload));
    }
}

void ReliableChannel::send_ack_now() {
    if (closed_ || !inner_->open()) return;
    std::string wire;
    wire.reserve(kAckFrame);
    wire.push_back(kAck);
    put_u64(wire, delivered_seq_);
    c_acks_.incr();
    inner_->send(wire);
}

void ReliableChannel::schedule_ack(bool immediate) {
    if (immediate) {
        ++ack_epoch_; // cancels a pending delayed ack
        ack_scheduled_ = false;
        send_ack_now();
        return;
    }
    if (ack_scheduled_) return;
    ack_scheduled_ = true;
    const std::uint64_t epoch = ++ack_epoch_;
    auto self = shared_from_this();
    sim_.after(params_.ack_delay, [self, epoch]() {
        if (epoch != self->ack_epoch_ || !self->ack_scheduled_) return;
        self->ack_scheduled_ = false;
        self->send_ack_now();
    });
}

void ReliableChannel::set_on_message(MessageHandler handler) {
    on_message_ = std::move(handler);
    while (on_message_ && !pending_.empty()) {
        auto payload = std::move(pending_.front());
        pending_.pop_front();
        on_message_(std::move(payload));
    }
}

void ReliableChannel::close() {
    if (closed_) return;
    closed_ = true;
    ++rto_epoch_;
    ++ack_epoch_;
    unacked_.clear();
    reorder_.clear();
    pending_.clear();
    if (on_message_ || on_broken_) {
        sim_.trace().note(sim::TraceEvent::kHandlerClear, sim_.now(),
                          inner_->peer());
        // close() is frequently called from inside on_broken_ (the owner's
        // link-broken handler tears the link down) or from on_message_, so
        // neither function object may be destroyed synchronously. Defer one
        // sim event; closed_ already gates every entry point.
        auto self = shared_from_this();
        sim_.after(sim::Duration::zero(), [self]() {
            self->on_message_ = nullptr;
            self->on_broken_ = nullptr;
        });
    }
    inner_->close();
}

} // namespace skv::server
