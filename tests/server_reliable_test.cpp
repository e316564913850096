#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "server/protocol.hpp"
#include "server/reliable.hpp"
#include "sim/rng.hpp"

namespace skv::server {
namespace {

/// What the in-test link does to each frame handed to send().
struct LinkSpec {
    double drop = 0.0;
    double dup = 0.0;
    /// Each copy arrives after 10 µs plus a uniform draw below this, so
    /// frames sent close together overtake each other.
    sim::Duration jitter = sim::Duration::zero();
};

/// One end of an in-test pipe: a frame given to send() reaches the peer
/// end's handler after a seeded delay, unless the spec drops it; the spec
/// may also duplicate it. `tamper` sees every frame first and may rewrite
/// it, or return false to drop it.
class LossyEnd final : public net::Channel {
public:
    LossyEnd(sim::Simulation& sim, std::uint64_t seed, LinkSpec spec)
        : sim_(sim), rng_(seed), spec_(spec) {}

    std::function<bool(std::string&)> tamper;
    std::vector<std::string> sent; // every frame as handed to send()

    void wire_to(const std::shared_ptr<LossyEnd>& peer) { peer_ = peer; }

    /// Hand `bytes` to this end's handler as if they had just arrived.
    void inject(std::string bytes) {
        if (open_) deliver(std::move(bytes));
    }

    void send(std::string_view payload) override {
        if (!open_) return;
        sent.emplace_back(payload);
        std::string bytes(payload);
        if (tamper && !tamper(bytes)) return;
        if (rng_.next_bool(spec_.drop)) return;
        const int copies = rng_.next_bool(spec_.dup) ? 2 : 1;
        for (int i = 0; i < copies; ++i) {
            sim::Duration delay = sim::microseconds(10);
            if (spec_.jitter.ns() > 0) {
                delay += sim::nanoseconds(static_cast<std::int64_t>(
                    rng_.next_below(static_cast<std::uint64_t>(spec_.jitter.ns()))));
            }
            std::weak_ptr<LossyEnd> weak = peer_;
            sim_.after(delay, [weak, bytes]() {
                if (auto peer = weak.lock()) peer->inject(bytes);
            });
        }
    }
    void close() override { open_ = false; }
    [[nodiscard]] bool open() const override { return open_; }
    [[nodiscard]] net::EndpointId peer() const override { return 1; }
    [[nodiscard]] std::size_t backlog_bytes() const override { return 0; }

private:
    sim::Simulation& sim_;
    sim::Rng rng_;
    LinkSpec spec_;
    std::weak_ptr<LossyEnd> peer_;
    bool open_ = true;
};

/// Two reliable channels over a pair of lossy ends, recording deliveries.
struct Link {
    Link(sim::Simulation& sim, std::uint64_t seed, LinkSpec a_to_b,
         LinkSpec b_to_a)
        : raw_a(std::make_shared<LossyEnd>(sim, seed, a_to_b)),
          raw_b(std::make_shared<LossyEnd>(sim, seed ^ 0x9e37, b_to_a)) {
        raw_a->wire_to(raw_b);
        raw_b->wire_to(raw_a);
        a = ReliableChannel::wrap(sim, raw_a);
        b = ReliableChannel::wrap(sim, raw_b);
        a->set_on_message([this](std::string m) { at_a.push_back(std::move(m)); });
        b->set_on_message([this](std::string m) { at_b.push_back(std::move(m)); });
    }
    ~Link() {
        a->close();
        b->close();
    }

    std::shared_ptr<LossyEnd> raw_a, raw_b;
    ReliableChannelPtr a, b;
    std::vector<std::string> at_a, at_b;
};

/// `n` bytes of `v`, little-endian.
void put_le(std::string& out, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::vector<std::string> numbered(const std::string& prefix, int n) {
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
    return out;
}

/// Tamper hook acting on the first data frame only.
std::function<bool(std::string&)> on_first_data(std::function<bool(std::string&)> fn) {
    return [fn = std::move(fn), done = false](std::string& frame) mutable {
        if (done || frame.empty() || frame[0] != 'D') return true;
        done = true;
        return fn(frame);
    };
}

class ReliableSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliableSeedTest, ExactlyOnceInOrderUnderDropDupReorder) {
    sim::Simulation sim(GetParam());
    const LinkSpec lossy{0.1, 0.1, sim::microseconds(80)};
    Link link(sim, GetParam(), lossy, lossy);
    const auto to_b = numbered("a->b #", 300);
    const auto to_a = numbered("b->a #", 300);
    for (std::size_t i = 0; i < to_b.size(); ++i) {
        sim.after(sim::microseconds(static_cast<std::int64_t>(7 * i)),
                  [&link, &to_b, &to_a, i]() {
                      link.a->send(to_b[i]);
                      link.b->send(to_a[i]);
                  });
    }
    sim.run();
    EXPECT_EQ(link.at_b, to_b);
    EXPECT_EQ(link.at_a, to_a);
    EXPECT_FALSE(link.a->broken());
    EXPECT_FALSE(link.b->broken());
    EXPECT_EQ(link.a->unacked_count(), 0u);
    EXPECT_EQ(link.b->unacked_count(), 0u);
    // The link really was lossy and duplicating.
    EXPECT_GT(link.a->retransmits() + link.b->retransmits(), 0u);
    EXPECT_GT(link.a->dups_suppressed() + link.b->dups_suppressed(), 0u);
}

TEST(ReliableChannelTest, TruncatedDataFrameIsDroppedAndRetransmitted) {
    sim::Simulation sim(3);
    Link link(sim, 3, {}, {});
    link.raw_a->tamper = on_first_data([](std::string& frame) {
        frame.pop_back();
        return true;
    });
    link.a->send("a payload long enough to span lanes");
    sim.run();
    EXPECT_EQ(link.b->crc_drops(), 1u);
    EXPECT_EQ(link.a->retransmits(), 1u);
    EXPECT_EQ(link.at_b, std::vector<std::string>{"a payload long enough to span lanes"});
}

TEST(ReliableChannelTest, BitFlippedDataFrameIsDroppedAndRetransmitted) {
    sim::Simulation sim(4);
    Link link(sim, 4, {}, {});
    link.raw_a->tamper = on_first_data([](std::string& frame) {
        frame[frame.size() - 5] ^= 0x10;
        return true;
    });
    link.a->send("a payload long enough to span lanes");
    sim.run();
    EXPECT_EQ(link.b->crc_drops(), 1u);
    EXPECT_EQ(link.a->retransmits(), 1u);
    EXPECT_EQ(link.at_b, std::vector<std::string>{"a payload long enough to span lanes"});
}

TEST(ReliableChannelTest, OnBrokenFiresOnceAfterMaxRetries) {
    sim::Simulation sim(5);
    Link link(sim, 5, LinkSpec{1.0, 0.0, {}}, {});
    int broken = 0;
    link.a->set_on_broken([&broken]() { ++broken; });
    link.a->send("never arrives");
    link.a->send("nor this");
    sim.run();
    EXPECT_EQ(broken, 1);
    EXPECT_TRUE(link.a->broken());
    EXPECT_FALSE(link.a->open());
    EXPECT_EQ(link.a->retransmits(), 8u); // the retry limit
    // A broken link accepts nothing more and never fires again.
    const auto frames = link.raw_a->sent.size();
    link.a->send("after the break");
    sim.run();
    EXPECT_EQ(link.raw_a->sent.size(), frames);
    EXPECT_EQ(broken, 1);
    EXPECT_TRUE(link.at_b.empty());
}

TEST(ReliableChannelTest, ReorderWindowOverflowIsCountedThenRecovered) {
    sim::Simulation sim(6);
    Link link(sim, 6, {}, {});
    link.raw_a->tamper = on_first_data([](std::string&) { return false; });
    const auto msgs = numbered("m", 70);
    for (const auto& m : msgs) link.a->send(m);
    sim.run();
    // Seq 1 is lost: 2..65 fill the 64-message reorder window and 66..70
    // overflow it. Nothing was duplicated.
    EXPECT_EQ(link.b->dups_suppressed(), 0u);
    EXPECT_EQ(link.b->reorder_overflows(), 5u);
    EXPECT_EQ(link.at_b, msgs);
    EXPECT_EQ(link.a->unacked_count(), 0u);
}

// Pins the wire bytes of a data frame, checksum included, and of the ack:
// a changed hash or header layout must be a deliberate change.
TEST(ReliableChannelTest, WireFormatIsPinned) {
    sim::Simulation sim(7);
    Link link(sim, 7, {}, {});
    link.a->send("hello");
    sim.run();
    std::string data("D");
    put_le(data, 1, 8);          // seq
    put_le(data, 0x667ce894, 4); // checksum("hello")
    data += "hello";
    ASSERT_EQ(link.raw_a->sent.size(), 1u);
    EXPECT_EQ(link.raw_a->sent.front(), data);
    std::string ack("A");
    put_le(ack, 1, 8); // cumulative: seq 1 arrived
    ASSERT_EQ(link.raw_b->sent.size(), 1u);
    EXPECT_EQ(link.raw_b->sent.front(), ack);
}

TEST(ReliableChannelTest, BufferedDeliveryBeforeHandlerInstalled) {
    sim::Simulation sim(8);
    auto raw_a = std::make_shared<LossyEnd>(sim, 8, LinkSpec{});
    auto raw_b = std::make_shared<LossyEnd>(sim, 9, LinkSpec{});
    raw_a->wire_to(raw_b);
    raw_b->wire_to(raw_a);
    auto a = ReliableChannel::wrap(sim, raw_a);
    auto b = ReliableChannel::wrap(sim, raw_b);
    a->send("early");
    a->send("later");
    sim.run(); // both arrive, and are acked, before b has a handler
    EXPECT_EQ(a->unacked_count(), 0u);
    std::vector<std::string> got;
    b->set_on_message([&got](std::string m) { got.push_back(std::move(m)); });
    EXPECT_EQ(got, (std::vector<std::string>{"early", "later"}));
}

/// Robustness sweeps in the style of kv_resp_fuzz_test: the framing faces
/// whatever a lossy ring reassembles, so it must never crash and never
/// deliver bytes that no peer sent.
class ReliableFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_bytes(sim::Rng& rng, std::size_t max_len) {
    std::string s(rng.next_below(max_len + 1), '\0');
    for (auto& c : s) c = static_cast<char>(rng.next_u64());
    return s;
}

TEST_P(ReliableFuzzTest, FramingSurvivesRandomAndMutatedFrames) {
    sim::Rng rng(GetParam());
    sim::Simulation sim(GetParam());
    Link link(sim, GetParam(), {}, {});
    // Genuine frames: what a's reliable layer put on the wire, never
    // delivered by the link itself.
    link.raw_a->tamper = [](std::string&) { return false; };
    std::set<std::string> sent;
    for (int i = 0; i < 200; ++i) {
        std::string payload = random_bytes(rng, 300);
        sent.insert(payload);
        link.a->send(payload);
    }
    // b sends too, so random ack frames have something to act on.
    for (int i = 0; i < 20; ++i) link.b->send("from b " + std::to_string(i));
    const std::vector<std::string> genuine = link.raw_a->sent;
    ASSERT_EQ(genuine.size(), 200u);

    for (int round = 0; round < 3000; ++round) {
        std::string frame;
        switch (rng.next_below(6)) {
            case 0: // a genuine frame, in any order, any number of times
                frame = genuine[rng.next_below(genuine.size())];
                break;
            case 1: { // a genuine frame with a few bits flipped
                frame = genuine[rng.next_below(genuine.size())];
                for (auto k = rng.next_below(3) + 1; k > 0; --k) {
                    frame[rng.next_below(frame.size())] ^=
                        static_cast<char>(1u << rng.next_below(8));
                }
                break;
            }
            case 2: // a genuine frame cut short
                frame = genuine[rng.next_below(genuine.size())];
                frame.resize(rng.next_below(frame.size()));
                break;
            case 3: // a genuine frame with bytes glued on
                frame = genuine[rng.next_below(genuine.size())] + random_bytes(rng, 16);
                break;
            case 4: { // a well-formed header over a random body
                frame.push_back(rng.next_bool(0.5) ? 'D' : 'A');
                put_le(frame, rng.next_below(300), 8);
                put_le(frame, rng.next_u64(), 4);
                frame += random_bytes(rng, 64);
                break;
            }
            default: // noise
                frame = random_bytes(rng, 40);
                break;
        }
        link.raw_b->inject(std::move(frame));
        if (round % 100 == 0) sim.run_until(sim.now() + sim::milliseconds(1));
    }
    // Finally the whole genuine stream, in order.
    for (const auto& frame : genuine) link.raw_b->inject(frame);
    sim.run_until(sim.now() + sim::milliseconds(50));
    EXPECT_FALSE(link.at_b.empty());
    for (const auto& m : link.at_b) {
        EXPECT_TRUE(sent.count(m) == 1) << "delivered bytes nobody sent, size " << m.size();
    }
    EXPECT_GT(link.b->crc_drops(), 0u);
}

TEST_P(ReliableFuzzTest, NodeMsgDecodeSurvivesRandomBytes) {
    sim::Rng rng(GetParam() ^ 0xA5A5);
    std::string tags;
    for (const auto t : kNodeMsgTypes) tags.push_back(static_cast<char>(t));
    int decoded = 0;
    for (int round = 0; round < 5000; ++round) {
        std::string wire = random_bytes(rng, 40);
        // Bias toward valid tags to reach the field and body paths.
        if (!wire.empty() && rng.next_bool(0.7)) {
            wire[0] = tags[rng.next_below(tags.size())];
        }
        const auto m = NodeMsg::decode(wire);
        if (!m) {
            EXPECT_TRUE(wire.size() < 9 || tags.find(wire[0]) == std::string::npos);
            continue;
        }
        ++decoded;
        // decode is the exact inverse of encode on everything it accepts.
        EXPECT_EQ(m->encode(), wire);
    }
    EXPECT_GT(decoded, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliableSeedTest,
                         ::testing::Values(1u, 7u, 42u, 20261016u));
INSTANTIATE_TEST_SUITE_P(Seeds, ReliableFuzzTest,
                         ::testing::Values(1u, 7u, 42u, 20261016u));

} // namespace
} // namespace skv::server
