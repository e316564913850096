#include "workload/retry_client.hpp"

#include <string_view>

#include "sim/check.hpp"

namespace skv::workload {

namespace {
bool has_prefix(const std::string& s, std::string_view prefix) {
    return std::string_view(s).starts_with(prefix);
}
} // namespace

RetryClient::RetryClient(sim::Simulation& sim, const cpu::CostModel& costs,
                         net::NodeRef node, std::uint64_t client_id,
                         Generator gen, RetryPolicy policy,
                         std::vector<Target> targets, DialFn dial,
                         check::History* history)
    : sim_(sim), costs_(costs), node_(node), client_id_(client_id),
      gen_(std::move(gen)), policy_(std::move(policy)),
      targets_(std::move(targets)), dial_(std::move(dial)),
      history_(history), rng_(sim.fork_rng()),
      channels_(targets_.size()), parsers_(targets_.size()) {
    SKV_CHECK(!targets_.empty());
    SKV_CHECK(dial_ != nullptr);
}

void RetryClient::start(std::uint64_t ops) {
    SKV_CHECK(!running_ && !op_active_);
    running_ = true;
    remaining_ = ops;
    next_op();
}

void RetryClient::issue(DrivenOp op, DoneFn done) {
    // Driver-paced mode: one op at a time, never alongside start()'s own
    // generated stream or another driven op still in flight.
    SKV_CHECK(!op_active_ && !running_);
    SKV_CHECK(done != nullptr);
    ++op_seq_;
    op_type_ = op.type;
    op_key_ = std::move(op.key);
    op_value_ = std::move(op.value);
    op_scan_keys_ = std::move(op.scan_keys);
    op_done_ = std::move(done);
    if (op_type_ == check::OpType::kRead && read_first_ < targets_.size()) {
        cur_ = read_first_;
    }
    op_invoke_ns_ = sim_.now().ns();
    op_deadline_at_ = sim_.now() + policy_.op_deadline;
    op_attempts_ = 0;
    maybe_applied_ = false;
    op_active_ = true;
    attempt();
}

void RetryClient::next_op() {
    if (!running_ || remaining_ == 0) return;
    --remaining_;
    auto argv = gen_.next();
    ++op_seq_;
    op_scan_keys_.clear();
    op_key_ = argv.at(1);
    if (argv[0] == "SET") {
        op_type_ = check::OpType::kWrite;
        // Unique per-(client, op) value so the checker can attribute every
        // observed read to exactly one write. Appended in place: operator+
        // on a literal and a temporary trips GCC 12's -Wrestrict at -O3.
        op_value_.clear();
        op_value_.push_back('c');
        op_value_.append(std::to_string(client_id_)).append("#").append(
            std::to_string(op_seq_));
    } else {
        op_type_ = check::OpType::kRead;
        op_value_.clear();
        // Protocol-aware routing: aim the first read attempt at the
        // configured target (chain tail); retries rotate as usual.
        if (read_first_ < targets_.size()) cur_ = read_first_;
    }
    op_invoke_ns_ = sim_.now().ns();
    op_deadline_at_ = sim_.now() + policy_.op_deadline;
    op_attempts_ = 0;
    maybe_applied_ = false;
    op_active_ = true;
    attempt();
}

void RetryClient::attempt() {
    SKV_CHECK(op_active_ && !waiting_);
    ++op_attempts_;
    waiting_ = true;
    attempt_sent_ = false;
    const std::uint64_t epoch = ++attempt_epoch_;

    // The attempt timer covers the whole attempt (dial included) and is
    // clamped so the op can never outlive its deadline.
    sim::Duration window = policy_.attempt_timeout;
    const sim::Duration left = op_deadline_at_ - sim_.now();
    if (left < window) window = left;
    auto self = shared_from_this();
    sim_.after(window, [self, epoch]() { self->on_attempt_timeout(epoch); });

    const std::size_t tidx = cur_;
    if (channels_[tidx] && channels_[tidx]->open()) {
        send_on(tidx);
        return;
    }
    channels_[tidx].reset();
    parsers_[tidx].reset();
    std::weak_ptr<RetryClient> weak = weak_from_this();
    dial_(node_, targets_[tidx], [weak, epoch, tidx](net::ChannelPtr ch) {
        auto locked = weak.lock();
        if (!locked || !ch) {
            if (ch) ch->close();
            return;
        }
        if (epoch != locked->attempt_epoch_ || !locked->waiting_) {
            // The attempt that dialed already moved on; a channel nobody
            // tracks would deliver replies we cannot attribute.
            ch->close();
            return;
        }
        locked->channels_[tidx] = std::move(ch);
        locked->parsers_[tidx].reset();
        // Weak capture: the client owns the channel and the handler lives
        // inside it (see net::Channel ownership notes).
        std::weak_ptr<RetryClient> w2 = locked->weak_from_this();
        locked->channels_[tidx]->set_on_message(
            [w2, tidx](std::string payload) {
                if (auto s = w2.lock())
                    s->on_channel_message(tidx, std::move(payload));
            });
        locked->send_on(tidx);
    });
}

void RetryClient::send_on(std::size_t tidx) {
    std::vector<std::string> argv;
    if (op_type_ == check::OpType::kWrite) {
        argv = {"WSEQ",  std::to_string(client_id_), std::to_string(op_seq_),
                "SET",   op_key_,                    op_value_};
    } else if (!op_scan_keys_.empty()) {
        // Range scan: one MGET over the precomputed key window.
        argv.reserve(op_scan_keys_.size() + 1);
        argv.emplace_back("MGET");
        for (const auto& k : op_scan_keys_) argv.push_back(k);
    } else {
        argv = {"GET", op_key_};
    }
    node_.core->consume(costs_.jittered(rng_, costs_.reply_build));
    attempt_sent_ = true;
    if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->flow_issue(channels_[tidx]->flow_id(), obs_track_);
    }
    channels_[tidx]->send(kv::resp::command(argv));
}

void RetryClient::on_channel_message(std::size_t tidx,
                                     const std::string& payload) {
    parsers_[tidx].feed(payload);
    kv::resp::Value v;
    for (;;) {
        const auto st = parsers_[tidx].next(&v);
        if (st == kv::resp::Status::kNeedMore) break;
        if (st == kv::resp::Status::kError) {
            // Garbage on the wire: drop the connection, the attempt timer
            // (if one is pending on this target) drives the retry.
            parsers_[tidx].reset();
            if (channels_[tidx]) channels_[tidx]->close();
            channels_[tidx].reset();
            break;
        }
        if (!waiting_ || tidx != cur_) continue; // not this attempt's reply
        handle_reply(v);
    }
}

void RetryClient::handle_reply(const kv::resp::Value& v) {
    waiting_ = false;
    ++attempt_epoch_; // cancels the pending attempt timer
    node_.core->consume(costs_.jittered(rng_, costs_.cmd_parse));
    if (tracer_ != nullptr && tracer_->enabled() && channels_[cur_]) {
        tracer_->flow_complete(channels_[cur_]->flow_id());
    }

    if (op_type_ == check::OpType::kRead) {
        if (v.is_error()) {
            if (has_prefix(v.str, "READONLY")) {
                retry(/*rotate=*/true);
            } else if (has_prefix(v.str, "WAITTIMEOUT")) {
                retry(/*rotate=*/false);
            } else {
                finalize(check::Outcome::kFail, false, "");
            }
            return;
        }
        if (v.kind == kv::resp::Value::Kind::kBulk) {
            finalize(check::Outcome::kOk, true, v.str);
        } else if (v.kind == kv::resp::Value::Kind::kArray) {
            // Scan (MGET) reply: the per-key values are not attributed to
            // the history (the checker is per-key), just a completed read.
            finalize(check::Outcome::kOk, true, "");
        } else {
            finalize(check::Outcome::kOk, false, "");
        }
        return;
    }

    // Write.
    if (v.is_ok()) {
        finalize(check::Outcome::kOk, true, op_value_);
        return;
    }
    if (v.is_error()) {
        if (has_prefix(v.str, "WAITTIMEOUT")) {
            // Applied on the master but not known replicated: a failover
            // could still lose it. Retry with the same WSEQ token; the dup
            // table replays the reply instead of re-applying.
            maybe_applied_ = true;
            retry(/*rotate=*/false);
            return;
        }
        if (has_prefix(v.str, "READONLY")) {
            retry(/*rotate=*/true);
            return;
        }
        if (has_prefix(v.str, "NOREPLICAS") ||
            has_prefix(v.str, "NOREPLPROGRESS")) {
            retry(/*rotate=*/false);
            return;
        }
    }
    // DUPSEQ, an engine error, or an unexpected reply shape: this attempt
    // definitely did not apply, but an earlier timed-out one still might
    // have.
    finalize(maybe_applied_ ? check::Outcome::kTimeout : check::Outcome::kFail,
             true, op_value_);
}

void RetryClient::on_attempt_timeout(std::uint64_t epoch) {
    if (epoch != attempt_epoch_ || !waiting_) return;
    waiting_ = false;
    ++attempt_epoch_;
    if (op_type_ == check::OpType::kWrite && attempt_sent_) {
        maybe_applied_ = true;
    }
    // Close the silent target's channel so its (possibly still parked)
    // reply can never be mistaken for a later request's.
    if (channels_[cur_]) channels_[cur_]->close();
    channels_[cur_].reset();
    parsers_[cur_].reset();
    retry(/*rotate=*/true);
}

void RetryClient::retry(bool rotate) {
    ++retries_;
    if (rotate) cur_ = (cur_ + 1) % targets_.size();
    const sim::Duration delay = next_backoff();
    if (sim_.now() + delay >= op_deadline_at_) {
        // Deadline: explicit completion, never a hang.
        if (op_type_ == check::OpType::kWrite) {
            finalize(maybe_applied_ ? check::Outcome::kTimeout
                                    : check::Outcome::kFail,
                     true, op_value_);
        } else {
            finalize(check::Outcome::kTimeout, false, "");
        }
        return;
    }
    const std::uint64_t epoch = attempt_epoch_;
    auto self = shared_from_this();
    sim_.after(delay, [self, epoch]() {
        if (self->op_active_ && !self->waiting_ &&
            self->attempt_epoch_ == epoch) {
            self->attempt();
        }
    });
}

void RetryClient::finalize(check::Outcome outcome, bool found,
                           std::string value) {
    SKV_CHECK(op_active_);
    op_active_ = false;
    waiting_ = false;
    ++attempt_epoch_;
    switch (outcome) {
    case check::Outcome::kOk:
        ++ops_ok_;
        last_ok_at_ = sim_.now();
        break;
    case check::Outcome::kFail: ++ops_failed_; break;
    case check::Outcome::kTimeout: ++ops_timed_out_; break;
    }
    if (history_ != nullptr) {
        check::Op op;
        op.client = client_id_;
        op.seq = op_seq_;
        op.type = op_type_;
        op.key = op_key_;
        op.value = std::move(value);
        op.found = found;
        op.outcome = outcome;
        op.invoke_ns = op_invoke_ns_;
        op.complete_ns = sim_.now().ns();
        history_->record(std::move(op));
    }
    if (op_done_) {
        // Driven mode: hand the connection back to the driver, which owns
        // pacing (open-loop arrivals, not client turnaround).
        DoneFn done = std::move(op_done_);
        op_done_ = nullptr;
        done(outcome);
        return;
    }
    auto self = shared_from_this();
    sim_.after(costs_.jittered(rng_, policy_.turnaround),
               [self]() { self->next_op(); });
}

sim::Duration RetryClient::next_backoff() {
    // 10 ms * 2^(attempts-1), capped at 320 ms, then jittered by +/-25%.
    constexpr std::int64_t kBaseNs = sim::milliseconds(10).ns();
    constexpr std::int64_t kCapNs = sim::milliseconds(320).ns();
    std::int64_t ns = kBaseNs;
    for (int i = 1; i < op_attempts_ && ns < kCapNs; ++i) ns *= 2;
    if (ns > kCapNs) ns = kCapNs;
    const double jitter = 1.0 + 0.25 * (2.0 * rng_.next_double() - 1.0);
    return sim::Duration(ns).scaled(jitter);
}

} // namespace skv::workload
