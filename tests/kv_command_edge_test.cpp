#include "engine_fixture.hpp"

namespace skv::kv {
namespace {

/// Second-wave conformance: boundary and error-path behaviour that the
/// main suite does not touch.
class CommandEdgeTest : public EngineTest<7> {};

// --- strings -------------------------------------------------------------

TEST_F(CommandEdgeTest, EmptyValueRoundTrips) {
    expect_reply({"SET", "k", ""}, "+OK\r\n");
    expect_reply({"GET", "k"}, "$0\r\n\r\n");
    expect_reply({"STRLEN", "k"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, BinaryKeyAndValue) {
    const std::string key("k\0ey", 4);
    const std::string val("v\r\nal", 5);
    run({"SET", key, val});
    run({"GET", key});
    EXPECT_EQ(last_reply_, "$5\r\nv\r\nal\r\n");
}

TEST_F(CommandEdgeTest, IncrbyMinLongLongRejected) {
    run({"DECRBY", "k", "-9223372036854775808"});
    EXPECT_TRUE(errored()); // negation would overflow
}

TEST_F(CommandEdgeTest, DecrUnderflow) {
    run({"SET", "k", "-9223372036854775808"});
    run({"DECR", "k"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, IncrbyFloatOnNonFloat) {
    run({"SET", "k", "notanumber"});
    run({"INCRBYFLOAT", "k", "1"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, SetrangeNegativeOffset) {
    run({"SETRANGE", "k", "-1", "x"});
    EXPECT_TRUE(errored());
    // A result past the largest bulk string (64 MB) is refused before any
    // allocation; a 1 TiB offset must not take the process down.
    expect_reply({"SETRANGE", "k", "1099511627776", "x"},
                 "-ERR string exceeds maximum allowed size\r\n");
    run({"SETRANGE", "k", std::to_string(resp::RequestParser::kMaxBulk), "x"});
    EXPECT_TRUE(errored());
    EXPECT_FALSE(db_.exists("k"));
}

TEST_F(CommandEdgeTest, SetrangeEmptyPatchOnMissingKey) {
    expect_reply({"SETRANGE", "none", "5", ""}, ":0\r\n");
    EXPECT_FALSE(db_.exists("none"));
}

TEST_F(CommandEdgeTest, GetrangeOnIntEncoded) {
    run({"SET", "k", "12345"});
    expect_reply({"GETRANGE", "k", "1", "3"}, "$3\r\n234\r\n");
}

TEST_F(CommandEdgeTest, AppendKeepsTtl) {
    run({"SET", "k", "a", "PX", "900"});
    run({"APPEND", "k", "b"});
    EXPECT_TRUE(db_.expire_at("k").has_value());
}

// --- keys ------------------------------------------------------------------

TEST_F(CommandEdgeTest, RenameSelfExisting) {
    run({"SET", "k", "v"});
    expect_reply({"RENAME", "k", "k"}, "+OK\r\n");
    EXPECT_TRUE(db_.exists("k"));
}

TEST_F(CommandEdgeTest, RenamenxSelf) {
    run({"SET", "k", "v"});
    expect_reply({"RENAMENX", "k", "k"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, RenameOverwritesTarget) {
    run({"SET", "a", "1"});
    run({"SET", "b", "2"});
    run({"RENAME", "a", "b"});
    run({"GET", "b"});
    EXPECT_EQ(last_reply_, "$1\r\n1\r\n");
    EXPECT_FALSE(db_.exists("a"));
}

TEST_F(CommandEdgeTest, ExpireNonIntSeconds) {
    run({"SET", "k", "v"});
    run({"EXPIRE", "k", "soon"});
    EXPECT_TRUE(errored());
    // Deadlines that overflow int64 are errors that leave the key alone,
    // not wrapped-around past deadlines that delete it.
    for (const char* cmd : {"EXPIRE", "PEXPIRE", "EXPIREAT"}) {
        const auto res = run({cmd, "k", "9223372036854775807"});
        EXPECT_TRUE(errored()) << cmd;
        EXPECT_TRUE(res.repl_argv.empty()) << cmd;
    }
    for (const char* cmd : {"EXPIRE", "EXPIREAT"}) {
        run({cmd, "k", "-9223372036854775808"});
        EXPECT_TRUE(errored()) << cmd;
    }
    run({"EXPIRE", "k", "9223372036854775807"});
    EXPECT_EQ(last_reply_, "-ERR invalid expire time in 'expire' command\r\n");
    EXPECT_TRUE(db_.exists("k"));
    expect_reply({"TTL", "k"}, ":-1\r\n");
    // In range but already past: still deletes, replicated as DEL.
    const auto res = run({"PEXPIRE", "k", "-9223372036854775808"});
    EXPECT_EQ(last_reply_, ":1\r\n");
    EXPECT_EQ(res.repl_argv, (std::vector<std::string>{"DEL", "k"}));
    EXPECT_FALSE(db_.exists("k"));
}

TEST_F(CommandEdgeTest, PersistOnMissingAndNoTtl) {
    expect_reply({"PERSIST", "missing"}, ":0\r\n");
    run({"SET", "k", "v"});
    expect_reply({"PERSIST", "k"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, KeysEscapedGlob) {
    run({"SET", "literal*", "v"});
    run({"SET", "literalX", "w"});
    expect_reply({"KEYS", "literal\\*"}, "*1\r\n$8\r\nliteral*\r\n");
}

TEST_F(CommandEdgeTest, KeysNegatedClass) {
    run({"SET", "a1", "v"});
    run({"SET", "a2", "v"});
    expect_reply({"KEYS", "a[^1]"}, "*1\r\n$2\r\na2\r\n");
}

TEST_F(CommandEdgeTest, ObjectUnknownSubcommand) {
    run({"OBJECT", "FREQ", "k"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, ObjectEncodingMissingKey) {
    expect_reply({"OBJECT", "ENCODING", "missing"}, "$-1\r\n");
}

// --- lazy expiration through commands -------------------------------------------

TEST_F(CommandEdgeTest, ExpiredKeyInvisibleToTypeAndExists) {
    run({"SET", "k", "v"});
    run({"PEXPIRE", "k", "10"});
    now_ms_ += 11;
    expect_reply({"EXISTS", "k"}, ":0\r\n");
    expect_reply({"TYPE", "k"}, "+none\r\n");
    expect_reply({"TTL", "k"}, ":-2\r\n");
}

TEST_F(CommandEdgeTest, SetnxOnExpiredKeySucceeds) {
    run({"SET", "k", "old"});
    run({"PEXPIRE", "k", "10"});
    now_ms_ += 11;
    expect_reply({"SETNX", "k", "new"}, ":1\r\n");
    run({"GET", "k"});
    EXPECT_EQ(last_reply_, "$3\r\nnew\r\n");
}

} // namespace
} // namespace skv::kv
