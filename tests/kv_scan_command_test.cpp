#include <set>

#include "engine_fixture.hpp"

namespace skv::kv {
namespace {

class ScanCommandTest : public EngineTest<13> {
protected:
    /// Run a command and parse its reply.
    resp::Value run(const std::vector<std::string>& argv) {
        EngineTest::run(argv);
        resp::ReplyParser p;
        p.feed(last_reply_);
        resp::Value v;
        EXPECT_EQ(p.next(&v), resp::Status::kOk);
        return v;
    }

    /// Drive SCAN to completion, returning every key seen.
    std::set<std::string> full_scan(const std::vector<std::string>& extra = {}) {
        std::set<std::string> seen;
        std::string cursor = "0";
        int guard = 0;
        do {
            std::vector<std::string> argv{"SCAN", cursor};
            argv.insert(argv.end(), extra.begin(), extra.end());
            const auto v = run(argv);
            EXPECT_EQ(v.kind, resp::Value::Kind::kArray);
            EXPECT_EQ(v.elems.size(), 2u);
            cursor = v.elems[0].str;
            for (const auto& k : v.elems[1].elems) seen.insert(k.str);
        } while (cursor != "0" && guard++ < 10'000);
        return seen;
    }
};

TEST_F(ScanCommandTest, ScanEmptyKeyspace) {
    const auto v = run({"SCAN", "0"});
    EXPECT_EQ(v.elems[0].str, "0");
    EXPECT_TRUE(v.elems[1].elems.empty());
}

TEST_F(ScanCommandTest, ScanCoversEveryKey) {
    for (int i = 0; i < 500; ++i) {
        run({"SET", "key:" + std::to_string(i), "v"});
    }
    const auto seen = full_scan();
    EXPECT_EQ(seen.size(), 500u);
    EXPECT_TRUE(seen.contains("key:0"));
    EXPECT_TRUE(seen.contains("key:499"));
}

TEST_F(ScanCommandTest, ScanMatchFilters) {
    run({"MSET", "user:1", "a", "user:2", "b", "other", "c"});
    const auto seen = full_scan({"MATCH", "user:*"});
    EXPECT_EQ(seen, (std::set<std::string>{"user:1", "user:2"}));
}

TEST_F(ScanCommandTest, ScanCountControlsStepSize) {
    for (int i = 0; i < 100; ++i) {
        run({"SET", std::string("k").append(std::to_string(i)), "v"});
    }
    // COUNT 1 must still terminate and cover everything.
    const auto seen = full_scan({"COUNT", "1"});
    EXPECT_EQ(seen.size(), 100u);
}

TEST_F(ScanCommandTest, ScanInvalidCursorAndOptions) {
    std::string out;
    CommandTable::instance().execute(db_, rng_, {"SCAN", "abc"}, out);
    EXPECT_EQ(out.front(), '-');
    out.clear();
    CommandTable::instance().execute(db_, rng_, {"SCAN", "0", "BOGUS"}, out);
    EXPECT_EQ(out.front(), '-');
    out.clear();
    CommandTable::instance().execute(db_, rng_, {"SCAN", "0", "COUNT", "0"}, out);
    EXPECT_EQ(out.front(), '-');
}

TEST_F(ScanCommandTest, GetdelReturnsAndRemoves) {
    run({"SET", "k", "v"});
    const auto v = run({"GETDEL", "k"});
    EXPECT_EQ(v.str, "v");
    EXPECT_FALSE(db_.exists("k"));
    const auto v2 = run({"GETDEL", "k"});
    EXPECT_EQ(v2.kind, resp::Value::Kind::kNull);
}

TEST_F(ScanCommandTest, GetdelReplicatesAsDel) {
    run({"SET", "k", "v"});
    std::string out;
    const auto res =
        CommandTable::instance().execute(db_, rng_, {"GETDEL", "k"}, out);
    EXPECT_EQ(res.repl_argv, (std::vector<std::string>{"DEL", "k"}));
}

TEST_F(ScanCommandTest, GetexSetsTtl) {
    run({"SET", "k", "v"});
    const auto v = run({"GETEX", "k", "PX", "500"});
    EXPECT_EQ(v.str, "v");
    EXPECT_EQ(*db_.expire_at("k"), 1500);
}

TEST_F(ScanCommandTest, GetexPersist) {
    run({"SET", "k", "v", "PX", "500"});
    run({"GETEX", "k", "PERSIST"});
    EXPECT_FALSE(db_.expire_at("k").has_value());
}

TEST_F(ScanCommandTest, GetexPlainDoesNotTouchTtl) {
    run({"SET", "k", "v", "PX", "500"});
    const auto v = run({"GETEX", "k"});
    EXPECT_EQ(v.str, "v");
    EXPECT_EQ(*db_.expire_at("k"), 1500);
}

TEST_F(ScanCommandTest, GetexBadSyntax) {
    run({"SET", "k", "v"});
    std::string out;
    CommandTable::instance().execute(db_, rng_, {"GETEX", "k", "EX", "0"}, out);
    EXPECT_EQ(out.front(), '-');
    out.clear();
    CommandTable::instance().execute(db_, rng_, {"GETEX", "k", "WAT"}, out);
    EXPECT_EQ(out.front(), '-');
    // Deadlines past int64 are rejected and the TTL is left alone.
    for (const char* unit : {"EX", "PX"}) {
        for (const char* v : {"9223372036854775807", "-9223372036854775808"}) {
            out.clear();
            const auto res =
                CommandTable::instance().execute(db_, rng_, {"GETEX", "k", unit, v}, out);
            EXPECT_EQ(out.front(), '-') << unit << " " << v;
            EXPECT_TRUE(res.repl_argv.empty()) << unit << " " << v;
        }
    }
    EXPECT_TRUE(db_.exists("k"));
    EXPECT_FALSE(db_.expire_at("k").has_value());
}

} // namespace
} // namespace skv::kv
