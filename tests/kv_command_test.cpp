#include "engine_fixture.hpp"

namespace skv::kv {
namespace {

class CommandTest : public EngineTest<99> {};

// --- dispatch ----------------------------------------------------------------

TEST_F(CommandTest, UnknownCommand) {
    const auto res = run({"FROB", "x"});
    EXPECT_EQ(res.status, ExecResult::Status::kUnknownCommand);
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, ArityErrors) {
    EXPECT_EQ(run({"GET"}).status, ExecResult::Status::kArityError);
    EXPECT_EQ(run({"GET", "a", "b"}).status, ExecResult::Status::kArityError);
    EXPECT_EQ(run({"SET", "k"}).status, ExecResult::Status::kArityError);
}

TEST_F(CommandTest, CaseInsensitiveLookup) {
    expect_reply({"set", "k", "v"}, "+OK\r\n");
    expect_reply({"GeT", "k"}, "$1\r\nv\r\n");
}

TEST_F(CommandTest, TableHasAllFamilies) {
    const auto& t = CommandTable::instance();
    EXPECT_GE(t.size(), 40u);
    for (const char* name :
         {"GET", "SET", "INCR", "DEL", "EXPIRE", "SCAN", "GETEX", "SETBIT",
          "PING"}) {
        EXPECT_NE(t.lookup(name), nullptr) << name;
    }
    // Strings are the only data type: no list/set/hash/zset family.
    for (const char* name : {"LPUSH", "SADD", "HSET", "ZADD"}) {
        EXPECT_EQ(t.lookup(name), nullptr) << name;
    }
}

// --- strings ------------------------------------------------------------------

TEST_F(CommandTest, SetGet) {
    expect_reply({"SET", "k", "v"}, "+OK\r\n");
    expect_reply({"GET", "k"}, "$1\r\nv\r\n");
    expect_reply({"GET", "missing"}, "$-1\r\n");
}

TEST_F(CommandTest, SetNxXx) {
    expect_reply({"SET", "k", "v1", "NX"}, "+OK\r\n");
    expect_reply({"SET", "k", "v2", "NX"}, "$-1\r\n"); // already exists
    expect_reply({"GET", "k"}, "$2\r\nv1\r\n");
    expect_reply({"SET", "k2", "x", "XX"}, "$-1\r\n"); // does not exist
    expect_reply({"SET", "k", "v3", "XX"}, "+OK\r\n");
    expect_reply({"GET", "k"}, "$2\r\nv3\r\n");
}

TEST_F(CommandTest, SetNxXxConflict) {
    run({"SET", "k", "v", "NX", "XX"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, SetWithExpiry) {
    run({"SET", "k", "v", "PX", "500"});
    EXPECT_EQ(*db_.expire_at("k"), 1500);
    run({"SET", "k2", "v", "EX", "2"});
    EXPECT_EQ(*db_.expire_at("k2"), 3000);
}

TEST_F(CommandTest, SetExpiryRewrittenAbsolute) {
    const auto res = run({"SET", "k", "v", "PX", "500"});
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "SETPXAT");
    EXPECT_EQ(res.repl_argv[3], "1500");
}

TEST_F(CommandTest, SetKeepTtl) {
    run({"SET", "k", "v", "PX", "500"});
    run({"SET", "k", "v2", "KEEPTTL"});
    EXPECT_EQ(*db_.expire_at("k"), 1500);
    run({"SET", "k", "v3"});
    EXPECT_FALSE(db_.expire_at("k").has_value());
}

TEST_F(CommandTest, SetInvalidExpire) {
    run({"SET", "k", "v", "PX", "0"});
    EXPECT_EQ(last_reply_.front(), '-');
    run({"SET", "k", "v", "EX", "abc"});
    EXPECT_EQ(last_reply_.front(), '-');
    // Deadlines past int64 are rejected, not wrapped into the past.
    run({"SET", "k", "old"});
    for (const char* unit : {"EX", "PX"}) {
        const auto res = run({"SET", "k", "v", unit, "9223372036854775807"});
        EXPECT_EQ(last_reply_, "-ERR invalid expire time in 'set' command\r\n") << unit;
        EXPECT_TRUE(res.repl_argv.empty()) << unit;
        run({"SET", "k", "v", unit, "-9223372036854775808"});
        EXPECT_EQ(last_reply_.front(), '-') << unit;
    }
    expect_reply({"GET", "k"}, "$3\r\nold\r\n");
    EXPECT_FALSE(db_.expire_at("k").has_value());
}

TEST_F(CommandTest, SetnxSetexPsetex) {
    expect_reply({"SETNX", "k", "a"}, ":1\r\n");
    expect_reply({"SETNX", "k", "b"}, ":0\r\n");
    run({"SETEX", "e", "5", "v"});
    EXPECT_EQ(*db_.expire_at("e"), 6000);
    run({"PSETEX", "p", "250", "v"});
    EXPECT_EQ(*db_.expire_at("p"), 1250);
    run({"SETEX", "bad", "-1", "v"});
    EXPECT_EQ(last_reply_.front(), '-');
    for (const char* cmd : {"SETEX", "PSETEX"}) {
        run({cmd, "big", "9223372036854775807", "v"});
        EXPECT_EQ(last_reply_.front(), '-') << cmd;
        run({cmd, "big", "-9223372036854775808", "v"});
        EXPECT_EQ(last_reply_.front(), '-') << cmd;
    }
    run({"SETEX", "big", "9223372036854775807", "v"});
    EXPECT_EQ(last_reply_, "-ERR invalid expire time in 'setex' command\r\n");
    EXPECT_FALSE(db_.exists("big"));
}

TEST_F(CommandTest, GetSet) {
    expect_reply({"GETSET", "k", "new"}, "$-1\r\n");
    expect_reply({"GETSET", "k", "newer"}, "$3\r\nnew\r\n");
}

TEST_F(CommandTest, AppendStrlen) {
    expect_reply({"APPEND", "k", "ab"}, ":2\r\n");
    expect_reply({"APPEND", "k", "cd"}, ":4\r\n");
    expect_reply({"GET", "k"}, "$4\r\nabcd\r\n");
    expect_reply({"STRLEN", "k"}, ":4\r\n");
    expect_reply({"STRLEN", "missing"}, ":0\r\n");
}

TEST_F(CommandTest, IncrDecrFamily) {
    expect_reply({"INCR", "n"}, ":1\r\n");
    expect_reply({"INCR", "n"}, ":2\r\n");
    expect_reply({"DECR", "n"}, ":1\r\n");
    expect_reply({"INCRBY", "n", "10"}, ":11\r\n");
    expect_reply({"DECRBY", "n", "5"}, ":6\r\n");
}

TEST_F(CommandTest, IncrNonNumericFails) {
    run({"SET", "k", "abc"});
    run({"INCR", "k"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, IncrOverflow) {
    run({"SET", "k", "9223372036854775807"});
    run({"INCR", "k"});
    EXPECT_EQ(last_reply_.front(), '-');
    expect_reply({"GET", "k"}, "$19\r\n9223372036854775807\r\n");
}

TEST_F(CommandTest, IncrByFloatReplicatesResult) {
    run({"SET", "k", "10.5"});
    const auto res = run({"INCRBYFLOAT", "k", "0.25"});
    EXPECT_EQ(last_reply_, "$5\r\n10.75\r\n");
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "SET"); // deterministic rewrite
    EXPECT_EQ(res.repl_argv[2], "10.75");
}

TEST_F(CommandTest, MsetMget) {
    expect_reply({"MSET", "a", "1", "b", "2"}, "+OK\r\n");
    expect_reply({"MGET", "a", "b", "nope"},
                 "*3\r\n$1\r\n1\r\n$1\r\n2\r\n$-1\r\n");
    run({"MSET", "a", "1", "b"}); // odd arity
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, Msetnx) {
    expect_reply({"MSETNX", "a", "1", "b", "2"}, ":1\r\n");
    expect_reply({"MSETNX", "b", "9", "c", "3"}, ":0\r\n"); // b exists
    EXPECT_FALSE(db_.exists("c"));
}

TEST_F(CommandTest, GetRangeSetRange) {
    run({"SET", "k", "Hello World"});
    expect_reply({"GETRANGE", "k", "0", "4"}, "$5\r\nHello\r\n");
    expect_reply({"GETRANGE", "k", "-5", "-1"}, "$5\r\nWorld\r\n");
    expect_reply({"GETRANGE", "missing", "0", "1"}, "$0\r\n\r\n");
    expect_reply({"SETRANGE", "k", "6", "Redis"}, ":11\r\n");
    expect_reply({"GET", "k"}, "$11\r\nHello Redis\r\n");
    expect_reply({"SETRANGE", "pad", "3", "x"}, ":4\r\n");
    std::string v = db_.lookup("pad")->string_value();
    EXPECT_EQ(v, std::string("\0\0\0x", 4));
}

// --- keys ---------------------------------------------------------------------

TEST_F(CommandTest, DelExists) {
    run({"MSET", "a", "1", "b", "2"});
    expect_reply({"EXISTS", "a", "b", "c", "a"}, ":3\r\n");
    expect_reply({"DEL", "a", "b", "c"}, ":2\r\n");
    expect_reply({"EXISTS", "a"}, ":0\r\n");
}

TEST_F(CommandTest, ExpireTtlPersist) {
    run({"SET", "k", "v"});
    expect_reply({"EXPIRE", "k", "10"}, ":1\r\n");
    expect_reply({"TTL", "k"}, ":10\r\n");
    expect_reply({"PTTL", "k"}, ":10000\r\n");
    expect_reply({"PERSIST", "k"}, ":1\r\n");
    expect_reply({"TTL", "k"}, ":-1\r\n");
    expect_reply({"EXPIRE", "missing", "10"}, ":0\r\n");
    expect_reply({"TTL", "missing"}, ":-2\r\n");
}

TEST_F(CommandTest, ExpireReplicatedAsPexpireat) {
    run({"SET", "k", "v"});
    const auto res = run({"EXPIRE", "k", "10"});
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "PEXPIREAT");
    EXPECT_EQ(res.repl_argv[2], "11000");
}

TEST_F(CommandTest, ExpireInPastDeletes) {
    run({"SET", "k", "v"});
    const auto res = run({"EXPIREAT", "k", "0"});
    EXPECT_FALSE(db_.exists("k"));
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "DEL"); // replicated as an explicit delete
}

TEST_F(CommandTest, TypeCommand) {
    run({"SET", "s", "v"});
    run({"INCR", "n"});
    expect_reply({"TYPE", "s"}, "+string\r\n");
    expect_reply({"TYPE", "n"}, "+string\r\n"); // int encoding, same type
    expect_reply({"TYPE", "none"}, "+none\r\n");
    run({"DEL", "s"});
    expect_reply({"TYPE", "s"}, "+none\r\n");
}

TEST_F(CommandTest, KeysGlob) {
    run({"MSET", "user:1", "a", "user:2", "b", "other", "c"});
    expect_reply({"KEYS", "user:*"},
                 "*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n");
    expect_reply({"KEYS", "user:?"},
                 "*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n");
    expect_reply({"KEYS", "user:[12]"},
                 "*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n");
    expect_reply({"KEYS", "nomatch*"}, "*0\r\n");
}

TEST_F(CommandTest, RenameFamily) {
    run({"SET", "a", "v"});
    run({"EXPIRE", "a", "100"});
    expect_reply({"RENAME", "a", "b"}, "+OK\r\n");
    EXPECT_FALSE(db_.exists("a"));
    EXPECT_EQ(db_.lookup("b")->string_value(), "v");
    EXPECT_TRUE(db_.expire_at("b").has_value()); // TTL travels
    run({"RENAME", "missing", "x"});
    EXPECT_EQ(last_reply_.front(), '-');
    run({"SET", "c", "w"});
    expect_reply({"RENAMENX", "c", "b"}, ":0\r\n"); // target exists
    expect_reply({"RENAMENX", "c", "d"}, ":1\r\n");
}

TEST_F(CommandTest, ObjectEncoding) {
    run({"SET", "i", "123"});
    expect_reply({"OBJECT", "ENCODING", "i"}, "$3\r\nint\r\n");
    run({"SET", "r", "abc"});
    expect_reply({"OBJECT", "ENCODING", "r"}, "$3\r\nraw\r\n");
    run({"APPEND", "i", "4"}); // append renders the integer as raw bytes
    expect_reply({"OBJECT", "ENCODING", "i"}, "$3\r\nraw\r\n");
    run({"SET", "r", "42"});
    expect_reply({"OBJECT", "ENCODING", "r"}, "$3\r\nint\r\n");
}

TEST_F(CommandTest, RandomKeyOnEmptyAndSingle) {
    expect_reply({"RANDOMKEY"}, "$-1\r\n");
    run({"SET", "only", "v"});
    expect_reply({"RANDOMKEY"}, "$4\r\nonly\r\n");
}

// --- server ---------------------------------------------------------------------

TEST_F(CommandTest, PingEcho) {
    expect_reply({"PING"}, "+PONG\r\n");
    expect_reply({"PING", "hello"}, "$5\r\nhello\r\n");
    expect_reply({"ECHO", "x"}, "$1\r\nx\r\n");
}

TEST_F(CommandTest, DbsizeFlush) {
    run({"MSET", "a", "1", "b", "2"});
    expect_reply({"DBSIZE"}, ":2\r\n");
    expect_reply({"FLUSHDB"}, "+OK\r\n");
    expect_reply({"DBSIZE"}, ":0\r\n");
}

TEST_F(CommandTest, SelectOnlyDbZero) {
    expect_reply({"SELECT", "0"}, "+OK\r\n");
    run({"SELECT", "3"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, TimeReflectsClock) {
    now_ms_ = 12'345;
    expect_reply({"TIME"}, "*2\r\n$2\r\n12\r\n$6\r\n345000\r\n");
}

// --- replication metadata --------------------------------------------------------

TEST_F(CommandTest, ReadsNeverReplicate) {
    run({"SET", "k", "v"});
    const auto res = run({"GET", "k"});
    EXPECT_FALSE(res.is_write);
    EXPECT_TRUE(res.repl_argv.empty());
}

TEST_F(CommandTest, NonDirtyWritesNotReplicated) {
    const auto res = run({"DEL", "missing"}); // no-op delete
    EXPECT_TRUE(res.is_write);
    EXPECT_FALSE(res.dirty);
    EXPECT_TRUE(res.repl_argv.empty());
}

TEST_F(CommandTest, DirtyWritesReplicateVerbatimByDefault) {
    const auto res = run({"SET", "k", "v"});
    EXPECT_EQ(res.repl_argv, (std::vector<std::string>{"SET", "k", "v"}));
}

} // namespace
} // namespace skv::kv
