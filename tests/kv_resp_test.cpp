#include <gtest/gtest.h>

#include "kv/resp.hpp"

namespace skv::kv::resp {
namespace {

TEST(RespEncode, Primitives) {
    EXPECT_EQ(simple("OK"), "+OK\r\n");
    EXPECT_EQ(error("ERR boom"), "-ERR boom\r\n");
    EXPECT_EQ(integer(42), ":42\r\n");
    EXPECT_EQ(integer(-1), ":-1\r\n");
    EXPECT_EQ(bulk("hi"), "$2\r\nhi\r\n");
    EXPECT_EQ(bulk(""), "$0\r\n\r\n");
    EXPECT_EQ(null_bulk(), "$-1\r\n");
    EXPECT_EQ(null_array(), "*-1\r\n");
    EXPECT_EQ(array_header(3), "*3\r\n");
}

TEST(RespEncode, Command) {
    EXPECT_EQ(command({"GET", "k"}), "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
}

TEST(RespEncode, AppendInPlace) {
    std::string out = "+OK\r\n";
    append_array_header(out, 2);
    append_bulk(out, std::string(300, 'v'));
    append_bulk(out, "");
    EXPECT_EQ(out, "+OK\r\n*2\r\n$300\r\n" + std::string(300, 'v') + "\r\n$0\r\n\r\n");
    EXPECT_EQ(bulk("x"), "$1\r\nx\r\n");
    const std::vector<std::string> argv{"SET", "k", std::string(1000, 'z'), ""};
    std::string expected = array_header(argv.size());
    for (const auto& a : argv) expected += bulk(a);
    EXPECT_EQ(command(argv), expected);
}

TEST(RequestParser, SingleMultibulk) {
    RequestParser p;
    p.feed("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv, (std::vector<std::string>{"SET", "k", "v"}));
    EXPECT_EQ(p.next(&argv), Status::kNeedMore);
}

TEST(RequestParser, PipelinedCommands) {
    RequestParser p;
    p.feed(command({"SET", "a", "1"}) + command({"GET", "a"}));
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv[0], "SET");
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv[0], "GET");
    EXPECT_EQ(p.next(&argv), Status::kNeedMore);
}

TEST(RequestParser, ByteByByteFeeding) {
    const std::string wire = command({"SET", "key", "value"});
    RequestParser p;
    std::vector<std::string> argv;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        p.feed(wire.substr(i, 1));
        ASSERT_EQ(p.next(&argv), Status::kNeedMore) << "at byte " << i;
    }
    p.feed(wire.substr(wire.size() - 1));
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv, (std::vector<std::string>{"SET", "key", "value"}));
}

TEST(RequestParser, BinarySafeBulk) {
    RequestParser p;
    const std::string payload("a\0\r\nb", 5);
    p.feed(command({"SET", "k", payload}));
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv[2], payload);
}

TEST(RequestParser, InlineCommand) {
    RequestParser p;
    p.feed("PING\r\n");
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv, std::vector<std::string>{"PING"});
}

TEST(RequestParser, InlineWithQuotes) {
    RequestParser p;
    p.feed("SET k \"a b\"\r\n");
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv[2], "a b");
}

TEST(RequestParser, InlineUnbalancedQuotesError) {
    RequestParser p;
    p.feed("SET k \"oops\r\n");
    std::vector<std::string> argv;
    std::string err;
    EXPECT_EQ(p.next(&argv, &err), Status::kError);
    EXPECT_NE(err.find("quotes"), std::string::npos);
}

TEST(RequestParser, InvalidMultibulkLength) {
    RequestParser p;
    p.feed("*abc\r\n");
    std::vector<std::string> argv;
    std::string err;
    EXPECT_EQ(p.next(&argv, &err), Status::kError);
}

TEST(RequestParser, OversizedMultibulkRejected) {
    RequestParser p;
    p.feed("*99999999\r\n");
    std::vector<std::string> argv;
    EXPECT_EQ(p.next(&argv), Status::kError);
}

TEST(RequestParser, MissingBulkDollarError) {
    RequestParser p;
    p.feed("*1\r\n:3\r\n");
    std::vector<std::string> argv;
    std::string err;
    EXPECT_EQ(p.next(&argv, &err), Status::kError);
    EXPECT_NE(err.find("'$'"), std::string::npos);
}

TEST(RequestParser, BulkNotCrlfTerminated) {
    RequestParser p;
    p.feed("*1\r\n$3\r\nabcXX");
    std::vector<std::string> argv;
    EXPECT_EQ(p.next(&argv), Status::kError);
}

TEST(RequestParser, EmptyArrayIsSkipped) {
    RequestParser p;
    p.feed("*0\r\n" + command({"PING"}));
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv[0], "PING");
}

TEST(RequestParser, MillionEmptyCommandsThenPing) {
    // Empty commands are skipped in a loop: a long run of them used to
    // recurse once each and overflow the stack.
    const std::string_view empties[] = {"*0\r\n", "*-1\r\n", " \t \r\n"};
    std::string wire;
    for (int i = 0; i < 1'000'000; ++i) wire += empties[i % 3];
    wire += command({"PING"});
    RequestParser p;
    p.feed(wire);
    std::vector<std::string> argv;
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv, std::vector<std::string>{"PING"});
    EXPECT_EQ(p.next(&argv), Status::kNeedMore);
    EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, EmptyCommandsThenPartialCommandNeedsMore) {
    RequestParser p;
    p.feed("*0\r\n  \r\n*1\r\n$4\r\nPI");
    std::vector<std::string> argv;
    EXPECT_EQ(p.next(&argv), Status::kNeedMore);
    p.feed("NG\r\n");
    ASSERT_EQ(p.next(&argv), Status::kOk);
    EXPECT_EQ(argv, std::vector<std::string>{"PING"});
}

TEST(ReplyParser, SimpleKinds) {
    ReplyParser p;
    p.feed("+OK\r\n-ERR x\r\n:7\r\n$3\r\nabc\r\n$-1\r\n");
    Value v;
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_TRUE(v.is_ok());
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_TRUE(v.is_error());
    EXPECT_EQ(v.str, "ERR x");
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_EQ(v.num, 7);
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_EQ(v.str, "abc");
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_EQ(v.kind, Value::Kind::kNull);
    EXPECT_EQ(p.next(&v), Status::kNeedMore);
}

TEST(ReplyParser, NestedArray) {
    ReplyParser p;
    p.feed("*2\r\n*2\r\n:1\r\n:2\r\n$1\r\nx\r\n");
    Value v;
    ASSERT_EQ(p.next(&v), Status::kOk);
    ASSERT_EQ(v.kind, Value::Kind::kArray);
    ASSERT_EQ(v.elems.size(), 2u);
    EXPECT_EQ(v.elems[0].elems[1].num, 2);
    EXPECT_EQ(v.elems[1].str, "x");
}

TEST(ReplyParser, NullArray) {
    ReplyParser p;
    p.feed("*-1\r\n");
    Value v;
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_EQ(v.kind, Value::Kind::kNull);
}

TEST(ReplyParser, PartialArrayNeedsMore) {
    ReplyParser p;
    p.feed("*2\r\n:1\r\n");
    Value v;
    EXPECT_EQ(p.next(&v), Status::kNeedMore);
    p.feed(":2\r\n");
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_EQ(v.elems.size(), 2u);
}

TEST(ReplyParser, DepthLimit) {
    ReplyParser p;
    std::string wire;
    for (int i = 0; i < 20; ++i) wire += "*1\r\n";
    wire += ":1\r\n";
    p.feed(wire);
    Value v;
    EXPECT_EQ(p.next(&v), Status::kError);
}

TEST(ReplyParser, BulkWithoutCrlfIsError) {
    // The body's CRLF is checked: "abc" then "+OK" is not a valid reading.
    ReplyParser p;
    p.feed("$3\r\nabcXY+OK\r\n");
    Value v;
    std::string err;
    EXPECT_EQ(p.next(&v, &err), Status::kError);
    EXPECT_NE(err.find("CRLF"), std::string::npos);
}

TEST(ReplyParser, OversizedArrayIsError) {
    ReplyParser p;
    p.feed("*100000000000\r\n");
    Value v;
    EXPECT_EQ(p.next(&v), Status::kError); // not std::bad_alloc from reserve
}

TEST(ReplyParser, OversizedBulkIsError) {
    ReplyParser p;
    p.feed("$9223372036854775807\r\n");
    Value v;
    EXPECT_EQ(p.next(&v), Status::kError); // not kNeedMore forever
}

TEST(ReplyParser, LimitsMatchRequestParser) {
    ReplyParser p;
    p.feed(std::string("$")
               .append(std::to_string(RequestParser::kMaxBulk + 1))
               .append("\r\n"));
    Value v;
    EXPECT_EQ(p.next(&v), Status::kError);
    ReplyParser q;
    q.feed(std::string("*")
               .append(std::to_string(RequestParser::kMaxMultiBulk + 1))
               .append("\r\n"));
    EXPECT_EQ(q.next(&v), Status::kError);
    // At the limit, a bulk header alone is a valid prefix.
    ReplyParser r;
    r.feed(std::string("$")
               .append(std::to_string(RequestParser::kMaxBulk))
               .append("\r\n"));
    EXPECT_EQ(r.next(&v), Status::kNeedMore);
}

TEST(ReplyParser, UnknownTagError) {
    ReplyParser p;
    p.feed("@weird\r\n");
    Value v;
    EXPECT_EQ(p.next(&v), Status::kError);
}

TEST(ReplyParser, DebugString) {
    ReplyParser p;
    p.feed("*2\r\n+OK\r\n:3\r\n");
    Value v;
    ASSERT_EQ(p.next(&v), Status::kOk);
    EXPECT_EQ(v.to_debug_string(), "[+OK, :3]");
}

TEST(RoundTrip, CommandThroughBothParsers) {
    // A command encoded by the client parses identically server-side.
    const std::vector<std::string> argv{"ZADD", "scores", "1.5", "alice"};
    RequestParser p;
    p.feed(command(argv));
    std::vector<std::string> parsed;
    ASSERT_EQ(p.next(&parsed), Status::kOk);
    EXPECT_EQ(parsed, argv);
}

} // namespace
} // namespace skv::kv::resp
