#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace skv::cpu {

/// One processor core in the simulation. Tasks submitted to a core execute
/// serially, in submission order, each occupying the core for its cost.
/// This is how the single-threaded Redis event loop is modelled: every
/// handler invocation (read a request, execute a command, post a work
/// request, ...) is a task on the server's core, and throughput saturation
/// emerges from core occupancy.
///
/// `speed_factor` scales task costs: 1.0 for a host Xeon core, >1 for the
/// slower SmartNIC ARM cores (a factor of f means every task takes f times
/// longer). This is the paper's "the performance of the cores on the
/// SmartNIC is much weaker than that of the host cores" knob.
class Core {
public:
    Core(sim::Simulation& sim, std::string name, double speed_factor = 1.0);

    Core(const Core&) = delete;
    Core& operator=(const Core&) = delete;

    /// Enqueue a task costing `host_cost` (expressed in host-core time;
    /// scaled by this core's speed factor). `fn` runs when the task
    /// completes. Returns the completion time.
    sim::SimTime submit(sim::Duration host_cost, std::function<void()> fn);

    /// Enqueue a zero-notification task: occupy the core without running
    /// anything at completion (pure cost accounting).
    void consume(sim::Duration host_cost);

    /// Total time this core has spent (or is committed to spend) executing.
    [[nodiscard]] sim::Duration total_busy() const { return total_busy_; }

    /// Fraction of [0, now] the core has been busy. Committed-but-future
    /// work is clipped to now, so the result is always in [0, 1].
    [[nodiscard]] double utilization() const;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] double speed_factor() const { return speed_factor_; }
    [[nodiscard]] std::uint64_t tasks_executed() const { return tasks_; }

    /// Halt the core: pending completions still fire (they already left the
    /// core), but new submissions are dropped. Models a crashed host.
    void halt() { halted_ = true; }
    void resume() { halted_ = false; }
    [[nodiscard]] bool halted() const { return halted_; }

private:
    sim::Simulation& sim_;
    std::string name_;
    double speed_factor_;
    sim::SimTime busy_until_ = sim::SimTime::zero();
    sim::Duration total_busy_ = sim::Duration::zero();
    std::uint64_t tasks_ = 0;
    bool halted_ = false;
};

} // namespace skv::cpu
