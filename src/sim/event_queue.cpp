#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace skv::sim {

namespace {

// Every hop in the model is scheduled at most ~10 us ahead and every timer at
// least 200 us ahead (the reliable layer's ack delay), so this horizon splits
// the two cleanly.
constexpr Duration kNearHorizon = microseconds(100);

SimTime near_limit_after(SimTime t) {
    if (t.ns() > SimTime::max().ns() - kNearHorizon.ns()) return SimTime::max();
    return t + kNearHorizon;
}

// A 4-ary min-heap in a vector: half the depth of a binary heap, and a
// node's four children sit next to each other in memory.
constexpr std::size_t kArity = 4;

template <class K>
void heap_push(std::vector<K>& h, K k) {
    std::size_t i = h.size();
    h.push_back(k);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!(k < h[parent])) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = k;
}

template <class K>
K heap_pop(std::vector<K>& h) {
    const K top = h.front();
    const K last = h.back();
    h.pop_back();
    const std::size_t n = h.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n) break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (h[c] < h[best]) best = c;
        }
        if (!(h[best] < last)) break;
        h[i] = h[best];
        i = best;
    }
    h[i] = last;
    return top;
}

} // namespace

EventQueue::EventQueue() : near_limit_(near_limit_after(SimTime::zero())) {}

void EventQueue::schedule(SimTime at, Callback fn) {
    SKV_CHECK(fn, "scheduling an empty callback");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
        SKV_CHECK(slots_.size() < UINT32_MAX, "event slab full");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(fn);
    }
    heap_push(at < near_limit_ ? near_ : far_, Key{at, next_seq_++, slot});
}

SimTime EventQueue::next_time() const {
    if (empty()) return SimTime::max();
    return (near_first() ? near_ : far_).front().at;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
    SKV_CHECK(!empty(), "pop() on an empty event queue");
    const Key k = heap_pop(near_first() ? near_ : far_);
    // Move the callback out before it runs: it may schedule more events and
    // grow (reallocate) the slab.
    std::pair<SimTime, Callback> out{k.at, std::exchange(slots_[k.slot], nullptr)};
    free_slots_.push_back(k.slot);
    near_limit_ = near_limit_after(k.at);
    return out;
}

} // namespace skv::sim
