#include <gtest/gtest.h>

#include "kv/resp.hpp"
#include "skv/cluster.hpp"

namespace skv::offload {
namespace {

/// Replication-progress gating (paper Fig. 9 step 3): slaves report their
/// offsets; the master refuses writes when a *valid* slave lags too far.

class LagTest : public ::testing::Test {
protected:
    struct Client {
        net::ChannelPtr ch;
        std::string replies;
        int oks = 0;
        int errors = 0;
        kv::resp::ReplyParser parser;

        void pump() {
            kv::resp::Value v;
            while (parser.next(&v) == kv::resp::Status::kOk) {
                (v.is_error() ? errors : oks)++;
                if (v.is_error()) last_error = v.str;
            }
        }
        std::string last_error;
    };

    std::unique_ptr<Cluster> make(std::int64_t max_lag, int n_slaves) {
        ClusterConfig cfg;
        cfg.n_slaves = n_slaves;
        cfg.offload = true;
        cfg.server_tmpl.max_repl_lag_bytes = max_lag;
        auto c = std::make_unique<Cluster>(cfg);
        c->start();
        return c;
    }

    Client connect(Cluster& c) {
        Client cl;
        auto node = c.add_client_host("lagtester" + std::to_string(++hosts_));
        c.connect_client(node, [&](net::ChannelPtr x) { cl.ch = std::move(x); });
        c.sim().run_until(c.sim().now() + sim::milliseconds(10));
        return cl;
    }

    int hosts_ = 0;
};

TEST_F(LagTest, HealthySlavesNeverTripTheGate) {
    auto c = make(1 << 20, 2);
    auto cl = connect(*c);
    ASSERT_TRUE(cl.ch);
    cl.ch->set_on_message([&](std::string m) {
        cl.parser.feed(m);
        cl.pump();
    });
    for (int i = 0; i < 200; ++i) {
        cl.ch->send(kv::resp::command(
            {"SET", std::string("k").append(std::to_string(i)), "v"}));
    }
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    EXPECT_EQ(cl.errors, 0);
    EXPECT_EQ(cl.oks, 200);
}

TEST_F(LagTest, DeadButUndetectedSlaveTripsTheGateEventually) {
    // Tiny lag budget + a crashed slave that is still marked valid: the
    // master's writes start failing with NOREPLPROGRESS until the failure
    // detector marks the slave invalid, after which writes flow again —
    // the interplay of the two §III-D mechanisms.
    auto c = make(2048, 2);
    auto cl = connect(*c);
    ASSERT_TRUE(cl.ch);
    cl.ch->set_on_message([&](std::string m) {
        cl.parser.feed(m);
        cl.pump();
    });

    c->slave(0).crash();
    // Immediately hammer writes, before the detector can react (its next
    // probe round is up to 1s + waiting-time away).
    for (int i = 0; i < 300; ++i) {
        cl.ch->send(kv::resp::command({"SET",
                                       std::string("k").append(std::to_string(i)),
                                       std::string(32, 'v')}));
    }
    c->sim().run_until(c->sim().now() + sim::milliseconds(400));
    EXPECT_GT(cl.errors, 0);
    EXPECT_NE(cl.last_error.find("NOREPLPROGRESS"), std::string::npos);

    // After detection the invalid slave is exempt from the lag check.
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    const int errors_after_detection = cl.errors;
    cl.ch->send(kv::resp::command({"SET", "recovered-write", "v"}));
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_EQ(cl.errors, errors_after_detection);
    EXPECT_TRUE(c->master().db().exists("recovered-write"));
}

TEST_F(LagTest, PromotedStandInAcceptsWrites) {
    auto c = make(1 << 24, 2);
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    c->master().crash();
    c->sim().run_until(c->sim().now() + sim::seconds(4));

    // Find the promoted slave and write to it directly.
    int promoted = -1;
    for (int i = 0; i < 2; ++i) {
        if (c->slave(i).role() == server::Role::kMaster) promoted = i;
    }
    ASSERT_GE(promoted, 0);

    auto node = c->add_client_host("writer");
    net::ChannelPtr ch;
    c->cm().connect(node, c->slave(promoted).node().ep, 6379,
                    [&](net::ChannelPtr x) { ch = x; });
    c->sim().run_until(c->sim().now() + sim::milliseconds(10));
    ASSERT_TRUE(ch);
    std::string replies;
    ch->set_on_message([&](std::string m) { replies += m; });
    ch->send(kv::resp::command({"SET", "on-standin", "v"}));
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_NE(replies.find("+OK"), std::string::npos);
    EXPECT_TRUE(c->slave(promoted).db().exists("on-standin"));

    // After the real master returns, the stand-in refuses writes again.
    c->master().recover();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    ASSERT_EQ(c->slave(promoted).role(), server::Role::kSlave);
    replies.clear();
    ch->send(kv::resp::command({"SET", "late-write", "v"}));
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_NE(replies.find("-READONLY"), std::string::npos);
}

TEST_F(LagTest, SlaveServesReadsThroughout) {
    auto c = make(1 << 24, 1);
    auto cl = connect(*c);
    ASSERT_TRUE(cl.ch);
    cl.ch->set_on_message([&](std::string m) {
        cl.parser.feed(m);
        cl.pump();
    });
    cl.ch->send(kv::resp::command({"SET", "shared", "value"}));
    c->sim().run_until(c->sim().now() + sim::milliseconds(100));

    auto node = c->add_client_host("reader");
    net::ChannelPtr ch;
    c->cm().connect(node, c->slave(0).node().ep, 6379,
                    [&](net::ChannelPtr x) { ch = x; });
    c->sim().run_until(c->sim().now() + sim::milliseconds(10));
    ASSERT_TRUE(ch);
    std::string replies;
    ch->set_on_message([&](std::string m) { replies += m; });
    ch->send(kv::resp::command({"GET", "shared"}));
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_NE(replies.find("value"), std::string::npos);
}

} // namespace
} // namespace skv::offload
