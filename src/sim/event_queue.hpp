#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace skv::sim {

/// Priority queue of timestamped callbacks. Ties in time are broken by
/// insertion order (FIFO), which together with the seeded RNG makes the
/// whole simulation deterministic.
///
/// Events are never cancelled. A component that no longer wants a timer
/// bumps its own epoch and the stale callback returns early when it fires.
///
/// Callbacks sit in a slab of reusable slots; the heaps order small
/// {at, seq, slot} keys, so sifting never moves a std::function. Events due
/// within a short horizon of the last popped time (network hops) go to a
/// small `near_` heap, and everything later (timeouts, probes) to `far_`,
/// so the common hop never sifts through the thousands of pending timers.
/// pop() takes the smaller (at, seq) of the two tops, so the tier an event
/// lands in changes speed only, never order.
class EventQueue {
public:
    using Callback = std::function<void()>;

    EventQueue();

    /// Schedule `fn` at absolute time `at`. Events scheduled for the same
    /// time fire in the order they were scheduled.
    void schedule(SimTime at, Callback fn);

    [[nodiscard]] bool empty() const { return near_.empty() && far_.empty(); }
    [[nodiscard]] std::size_t size() const { return near_.size() + far_.size(); }

    /// Time of the earliest event; SimTime::max() when empty.
    [[nodiscard]] SimTime next_time() const;

    /// Pop and return the earliest event. Must not be called when empty().
    /// Returns {time, callback}.
    std::pair<SimTime, Callback> pop();

private:
    struct Key {
        SimTime at;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;

        bool operator<(const Key& o) const { return at != o.at ? at < o.at : seq < o.seq; }
    };

    /// True when near_ holds the earliest key. Must not be called when empty().
    [[nodiscard]] bool near_first() const {
        return far_.empty() || (!near_.empty() && near_.front() < far_.front());
    }

    std::vector<Key> near_;
    std::vector<Key> far_;
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 1;
    /// Events due before this go to near_; set from each popped time.
    SimTime near_limit_;
};

} // namespace skv::sim
