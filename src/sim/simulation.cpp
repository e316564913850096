#include "sim/simulation.hpp"

#include "sim/check.hpp"

namespace skv::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {
    // Register as the diagnostic context so failed SKV_CHECKs anywhere in
    // the process can print the seed and current sim time. Last constructed
    // wins; tests that hold two simulations at once get the newer one.
    diag().sim = this;
}

Simulation::~Simulation() {
    if (diag().sim == this) diag().sim = nullptr;
}

void Simulation::after(Duration delay, EventQueue::Callback fn) {
    SKV_CHECK(delay.ns() >= 0, "negative delay");
    queue_.schedule(now_ + delay, std::move(fn));
}

void Simulation::at(SimTime when, EventQueue::Callback fn) {
    SKV_CHECK(when >= now_, "scheduling into the past");
    queue_.schedule(when, std::move(fn));
}

bool Simulation::step() {
    if (queue_.empty()) return false;
    auto [when, fn] = queue_.pop();
    SKV_CHECK(when >= now_, "event queue went backwards");
    now_ = when;
    ++executed_;
    fn();
    return true;
}

std::uint64_t Simulation::run_until(SimTime deadline) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.next_time() <= deadline) {
        step();
        ++n;
    }
    // Advance the clock to the deadline even if the queue drained early, so
    // repeated run_until() calls observe monotonic time.
    if (deadline != SimTime::max() && now_ < deadline) now_ = deadline;
    return n;
}

} // namespace skv::sim
