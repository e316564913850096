#include "engine_fixture.hpp"

namespace skv::kv {
namespace {

class BitsCommandTest : public EngineTest<21> {};

TEST_F(BitsCommandTest, SetbitGetbitRoundTrip) {
    expect_reply({"SETBIT", "b", "7", "1"}, ":0\r\n"); // old value 0
    expect_reply({"GETBIT", "b", "7"}, ":1\r\n");
    expect_reply({"GETBIT", "b", "6"}, ":0\r\n");
    expect_reply({"SETBIT", "b", "7", "0"}, ":1\r\n"); // old value 1
    expect_reply({"GETBIT", "b", "7"}, ":0\r\n");
}

TEST_F(BitsCommandTest, SetbitMsbFirstNumbering) {
    run({"SETBIT", "b", "0", "1"}); // MSB of byte 0 -> 0x80
    EXPECT_EQ(db_.lookup("b")->string_value(), std::string(1, '\x80'));
    run({"SETBIT", "b", "15", "1"}); // LSB of byte 1 -> extends the string
    EXPECT_EQ(db_.lookup("b")->string_value(), std::string("\x80\x01", 2));
}

TEST_F(BitsCommandTest, GetbitBeyondStringIsZero) {
    run({"SET", "b", "a"});
    expect_reply({"GETBIT", "b", "1000"}, ":0\r\n");
    expect_reply({"GETBIT", "missing", "3"}, ":0\r\n");
}

TEST_F(BitsCommandTest, SetbitValidation) {
    run({"SETBIT", "b", "-1", "1"});
    EXPECT_TRUE(errored());
    run({"SETBIT", "b", "abc", "1"});
    EXPECT_TRUE(errored());
    run({"SETBIT", "b", "0", "2"});
    EXPECT_TRUE(errored());
    // The last bit of a kMaxBulk-byte string is the highest valid offset.
    constexpr long long kMaxOffset = resp::RequestParser::kMaxBulk * 8 - 1;
    expect_reply({"GETBIT", "b", std::to_string(kMaxOffset)}, ":0\r\n");
    run({"SETBIT", "b", std::to_string(kMaxOffset + 1), "1"});
    EXPECT_TRUE(errored());
    run({"SETBIT", "b", "1099511627776", "1"});
    EXPECT_TRUE(errored());
    EXPECT_FALSE(db_.exists("b"));
}

TEST_F(BitsCommandTest, Bitcount) {
    run({"SET", "b", "foobar"});
    expect_reply({"BITCOUNT", "b"}, ":26\r\n");
    expect_reply({"BITCOUNT", "b", "0", "0"}, ":4\r\n");
    expect_reply({"BITCOUNT", "b", "1", "1"}, ":6\r\n");
    expect_reply({"BITCOUNT", "b", "-2", "-1"}, ":7\r\n"); // "ar"
    expect_reply({"BITCOUNT", "missing"}, ":0\r\n");
}

TEST_F(BitsCommandTest, Bitpos) {
    run({"SET", "b", std::string("\x00\x0f", 2)});
    expect_reply({"BITPOS", "b", "1"}, ":12\r\n");
    expect_reply({"BITPOS", "b", "0"}, ":0\r\n");
    run({"SET", "full", "\xff"});
    expect_reply({"BITPOS", "full", "0"}, ":8\r\n"); // implicit zero padding
    expect_reply({"BITPOS", "full", "0", "0", "0"}, ":-1\r\n"); // bounded
    expect_reply({"BITPOS", "missing", "1"}, ":-1\r\n");
    expect_reply({"BITPOS", "missing", "0"}, ":0\r\n");
}

TEST_F(BitsCommandTest, BitopAndOrXorNot) {
    run({"SET", "a", "abc"});
    run({"SET", "b", "abd"});
    expect_reply({"BITOP", "AND", "dst", "a", "b"}, ":3\r\n");
    EXPECT_EQ(db_.lookup("dst")->string_value(), std::string("ab`"));
    run({"BITOP", "OR", "dst", "a", "b"});
    EXPECT_EQ(db_.lookup("dst")->string_value(), std::string("abg"));
    run({"BITOP", "XOR", "dst", "a", "b"});
    EXPECT_EQ(db_.lookup("dst")->string_value(),
              std::string("\x00\x00\x07", 3));
    run({"BITOP", "NOT", "dst", "a"});
    EXPECT_EQ(db_.lookup("dst")->string_value()[0], static_cast<char>(~'a'));
}

TEST_F(BitsCommandTest, BitopDifferentLengthsZeroPad) {
    run({"SET", "short", "\xff"});
    run({"SET", "long", "\xff\xff\xff"});
    expect_reply({"BITOP", "AND", "dst", "short", "long"}, ":3\r\n");
    EXPECT_EQ(db_.lookup("dst")->string_value(),
              std::string("\xff\x00\x00", 3));
}

TEST_F(BitsCommandTest, BitopEmptySourcesRemovesDest) {
    run({"SET", "dst", "old"});
    expect_reply({"BITOP", "OR", "dst", "missing1", "missing2"}, ":0\r\n");
    EXPECT_FALSE(db_.exists("dst"));
}

TEST_F(BitsCommandTest, BitopNotSingleSourceOnly) {
    run({"SET", "a", "x"});
    run({"BITOP", "NOT", "dst", "a", "a"});
    EXPECT_TRUE(errored());
}

TEST_F(BitsCommandTest, BitOpsReplicate) {
    const auto res = run({"SETBIT", "b", "3", "1"});
    EXPECT_TRUE(res.is_write);
    EXPECT_EQ(res.repl_argv,
              (std::vector<std::string>{"SETBIT", "b", "3", "1"}));
}

} // namespace
} // namespace skv::kv
