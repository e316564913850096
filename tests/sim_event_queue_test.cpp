#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace skv::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(SimTime(30), [&] { order.push_back(3); });
    q.schedule(SimTime(10), [&] { order.push_back(1); });
    q.schedule(SimTime(20), [&] { order.push_back(2); });
    while (!q.empty()) q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesAreFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        q.schedule(SimTime(5), [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.pop().second();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeEmpty) {
    EventQueue q;
    EXPECT_EQ(q.next_time(), SimTime::max());
}

TEST(Simulation, ClockAdvancesToEventTime) {
    Simulation sim(1);
    SimTime seen;
    sim.after(microseconds(5), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, SimTime(5'000));
    EXPECT_EQ(sim.now(), SimTime(5'000));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
    Simulation sim(1);
    int ran = 0;
    sim.after(microseconds(1), [&] { ++ran; });
    sim.after(microseconds(10), [&] { ++ran; });
    sim.run_until(SimTime(5'000));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), SimTime(5'000)); // clock advanced to the deadline
    sim.run();
    EXPECT_EQ(ran, 2);
}

TEST(Simulation, NestedScheduling) {
    Simulation sim(1);
    std::vector<std::int64_t> times;
    sim.after(microseconds(1), [&] {
        times.push_back(sim.now().ns());
        sim.after(microseconds(1), [&] { times.push_back(sim.now().ns()); });
    });
    sim.run();
    EXPECT_EQ(times, (std::vector<std::int64_t>{1'000, 2'000}));
}

TEST(Simulation, StepExecutesOne) {
    Simulation sim(1);
    int ran = 0;
    sim.after(microseconds(1), [&] { ++ran; });
    sim.after(microseconds(2), [&] { ++ran; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsExecutedCounter) {
    Simulation sim(1);
    for (int i = 0; i < 7; ++i) sim.after(microseconds(i + 1), [] {});
    sim.run();
    EXPECT_EQ(sim.events_executed(), 7u);
}

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

// Drives the queue in lockstep with an ordered-map model through random
// schedule and pop steps: bursts at the current instant, network-hop
// delays, timers far past the near/far horizon, nested schedules from inside
// callbacks, and events placed at exactly the time of a pending one (often a
// timer scheduled as far that has since come within the horizon). Every pop
// must return the model's first (at, schedule order) entry.
TEST_P(StressTest, ManyInterleavedEventsStayOrdered) {
    EventQueue q;
    std::map<std::pair<SimTime, std::uint64_t>, int> model; // -> event id
    Rng rng(GetParam());
    SimTime now;
    std::uint64_t scheduled = 0;
    int next_id = 0;
    int ran_id = -1;

    auto pick_at = [&]() -> SimTime {
        switch (rng.next_below(4)) {
        case 0: return now;
        case 1: return now + nanoseconds(rng.next_range(1, 10'000));
        case 2: {
            // A timer past the near horizon: half within 300 us, the rest
            // up to 1.5 s out.
            const std::int64_t max_ns = rng.next_bool(0.5) ? 300'000 : 1'500'000'000;
            return now + nanoseconds(rng.next_range(100'000, max_ns));
        }
        default: {
            // The time of one of the next few pending events.
            if (model.empty()) return now;
            auto it = model.begin();
            for (auto k = rng.next_below(8); k > 0 && std::next(it) != model.end(); --k) ++it;
            return it->first.first;
        }
        }
    };
    std::function<void()> add = [&] {
        const SimTime at = pick_at();
        const int id = next_id++;
        const bool nests = rng.next_below(5) == 0;
        q.schedule(at, [&, id, nests] {
            ran_id = id;
            if (nests) add();
        });
        model.emplace(std::pair{at, scheduled++}, id);
    };
    auto pop_and_check = [&] {
        const auto expected = *model.begin();
        model.erase(model.begin());
        ASSERT_EQ(q.next_time(), expected.first.first);
        auto [when, fn] = q.pop();
        ASSERT_EQ(when, expected.first.first);
        now = when;
        fn();
        ASSERT_EQ(ran_id, expected.second);
        ASSERT_EQ(q.size(), model.size());
    };

    for (int step = 0; step < 20'000; ++step) {
        if (model.empty() || rng.next_below(100) < 55) {
            for (auto burst = rng.next_range(1, 3); burst > 0; --burst) add();
            ASSERT_EQ(q.size(), model.size());
        } else {
            ASSERT_NO_FATAL_FAILURE(pop_and_check());
        }
    }
    while (!model.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), SimTime::max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::Values(1u, 7u, 99u));

} // namespace
} // namespace skv::sim
