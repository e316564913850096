#include <gtest/gtest.h>

#include <set>

#include "net/wire.hpp"
#include "server/protocol.hpp"

namespace skv::server {
namespace {

// Driven by kNodeMsgTypes so a newly added enum value is covered the moment
// it lands in the authoritative list (and simlint's unhandled-tag rule
// fails if the list itself goes stale).
TEST(NodeMsg, RoundTripAllTypes) {
    for (const auto type : kNodeMsgTypes) {
        NodeMsg m{type, 0x1122334455667788LL, "payload bytes"};
        const auto decoded = NodeMsg::decode(m.encode());
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->type, type);
        EXPECT_EQ(decoded->field, 0x1122334455667788LL);
        EXPECT_EQ(decoded->body, "payload bytes");
    }
}

TEST(NodeMsg, TagCharsAreUnique) {
    // A colliding tag byte would silently misroute frames: decode() keys on
    // the first wire byte alone.
    std::set<char> seen;
    for (const auto type : kNodeMsgTypes) {
        const char tag = static_cast<char>(type);
        EXPECT_TRUE(seen.insert(tag).second)
            << "duplicate NodeMsg tag char '" << tag << "'";
    }
    EXPECT_EQ(seen.size(), std::size(kNodeMsgTypes));
}

TEST(NodeMsg, DecodeAcceptsExactlyTheListedTags) {
    std::set<char> valid;
    for (const auto type : kNodeMsgTypes) valid.insert(static_cast<char>(type));
    for (int c = 0; c < 256; ++c) {
        std::string wire(9, '\0');
        wire[0] = static_cast<char>(c);
        const auto d = NodeMsg::decode(wire);
        EXPECT_EQ(d.has_value(), valid.count(static_cast<char>(c)) != 0)
            << "tag byte " << c;
        if (d) {
            EXPECT_EQ(static_cast<char>(d->type), static_cast<char>(c));
        }
    }
}

TEST(NodeMsg, NegativeField) {
    NodeMsg m{NodeMsg::Type::kAck, -42, ""};
    const auto d = NodeMsg::decode(m.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->field, -42);
}

TEST(NodeMsg, BinaryBody) {
    std::string body;
    for (int i = 0; i < 256; ++i) body.push_back(static_cast<char>(i));
    NodeMsg m{NodeMsg::Type::kFullSync, 7, body};
    const auto d = NodeMsg::decode(m.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->body, body);
}

TEST(NodeMsg, EmptyBody) {
    NodeMsg m{NodeMsg::Type::kProbe, 3, ""};
    const auto wire = m.encode();
    EXPECT_EQ(wire.size(), 9u);
    const auto d = NodeMsg::decode(wire);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->body.empty());
}

// Every integer on the node-message wire goes through net::put_le/get_le:
// NodeMsg's field, the reliable layer's seq/checksum/ack and the ring's
// credit frames.
TEST(NodeMsg, LittleEndianCodecRoundTripsAtTheEdges) {
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{UINT32_MAX},
          static_cast<std::uint64_t>(INT64_MIN), std::uint64_t{UINT64_MAX}}) {
        std::string wire;
        net::put_le(wire, v);
        ASSERT_EQ(wire.size(), 8u);
        for (std::size_t i = 0; i < 8; ++i) {
            EXPECT_EQ(static_cast<unsigned char>(wire[i]),
                      static_cast<unsigned char>(v >> (8 * i)));
        }
        EXPECT_EQ(net::get_le(wire, 0), v);
        // A short read counts the missing high bytes as zero.
        EXPECT_EQ(net::get_le(std::string_view(wire).substr(0, 3), 0),
                  v & 0xffffffu);
        std::string low;
        net::put_le(low, v, 4);
        EXPECT_EQ(net::get_le(low, 0, 4), v & 0xffffffffu);

        const NodeMsg m{NodeMsg::Type::kAck, static_cast<std::int64_t>(v), ""};
        const auto d = NodeMsg::decode(m.encode());
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(d->field, m.field);
    }
}

TEST(NodeMsg, TooShortRejected) {
    EXPECT_FALSE(NodeMsg::decode("").has_value());
    EXPECT_FALSE(NodeMsg::decode("R1234567").has_value()); // 8 bytes
}

TEST(NodeMsg, UnknownTagRejected) {
    std::string wire = NodeMsg{NodeMsg::Type::kProbe, 0, ""}.encode();
    wire[0] = 'z';
    EXPECT_FALSE(NodeMsg::decode(wire).has_value());
}

TEST(PeerEndpoint, ParsesWellFormedIdentities) {
    EXPECT_EQ(parse_peer_endpoint("slave0@12"), 12u);
    EXPECT_EQ(parse_peer_endpoint("master@0"), 0u);
    // A name without '@' carries no endpoint; Nic-KV accepts such bodies.
    EXPECT_EQ(parse_peer_endpoint("slave9"), net::kInvalidEndpoint);
}

TEST(PeerEndpoint, KeepsStoulGrammarForAcceptedBodies) {
    // Whatever std::stoul accepted before parses to the same endpoint.
    EXPECT_EQ(parse_peer_endpoint("s@ 7"), 7u);
    EXPECT_EQ(parse_peer_endpoint("s@+7"), 7u);
    EXPECT_EQ(parse_peer_endpoint("s@7x"), 7u);
}

TEST(PeerEndpoint, RejectsMalformedEndpoints) {
    EXPECT_FALSE(parse_peer_endpoint("slave9@x").has_value());
    EXPECT_FALSE(parse_peer_endpoint("slave9@").has_value());
    EXPECT_FALSE(parse_peer_endpoint("evil@99999999999999999999999").has_value());
}

} // namespace
} // namespace skv::server
