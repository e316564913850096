#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "sim/histogram.hpp"
#include "sim/time.hpp"

namespace skv::obs {

class Registry;

/// Pre-resolved counter handle: incrementing is one pointer dereference and
/// an add, no string lookup. Handles stay valid for the life of the owning
/// Registry (cells live in a deque and never move). A default-constructed
/// handle is inert: incr() on it is a no-op, so components can be
/// instrumented unconditionally and wired to a registry lazily.
class Counter {
public:
    Counter() = default;
    void incr(std::uint64_t delta = 1) const {
        if (cell_ != nullptr) *cell_ += delta;
    }
    [[nodiscard]] std::uint64_t value() const {
        return cell_ != nullptr ? *cell_ : 0;
    }
    [[nodiscard]] explicit operator bool() const { return cell_ != nullptr; }

private:
    friend class Registry;
    explicit Counter(std::uint64_t* cell) : cell_(cell) {}
    std::uint64_t* cell_ = nullptr;
};

/// Pre-resolved latency-histogram handle. record() feeds the log-linear
/// sim::LatencyHistogram owned by the Registry.
class Timer {
public:
    Timer() = default;
    void record(sim::Duration d) const {
        if (hist_ != nullptr) hist_->record(d);
    }
    void record_ns(std::int64_t ns) const {
        if (hist_ != nullptr) hist_->record_ns(ns);
    }
    [[nodiscard]] const sim::LatencyHistogram* histogram() const { return hist_; }
    [[nodiscard]] explicit operator bool() const { return hist_ != nullptr; }

private:
    friend class Registry;
    explicit Timer(sim::LatencyHistogram* hist) : hist_(hist) {}
    sim::LatencyHistogram* hist_ = nullptr;
};

/// Per-node metric registry. Two faces:
///
///  - Typed handles (counter_handle/timer_handle), resolved once at wiring
///    time so hot paths pay an array index, not a
///    std::map<std::string,...> lookup per event.
///  - A string API (incr/counter/format) for cold paths that create a
///    counter on first use, so only names that were ever touched appear in
///    format(). Both faces address the same cells.
///
/// Iteration anywhere in this class is over std::map — deterministic by
/// construction, which the byte-identical format() guarantee relies on.
class Registry {
public:
    Registry() = default;

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    // --- typed pre-resolved handles (resolve once, use on the hot path) ---
    Counter counter_handle(const std::string& name);
    Timer timer_handle(const std::string& name);

    // --- string API (lazily created cells) ---
    void incr(const std::string& name, std::uint64_t delta = 1);
    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
    /// "name=value\n" lines, one per counter, sorted by name. Timers are
    /// deliberately excluded: the chaos determinism fingerprint folds this
    /// string in, so its layout is frozen.
    [[nodiscard]] std::string format() const;

private:
    // Cells live in deques so handle pointers survive growth.
    std::deque<std::uint64_t> counter_cells_;
    std::deque<sim::LatencyHistogram> timer_cells_;
    std::map<std::string, std::size_t> counter_index_;
    std::map<std::string, std::size_t> timer_index_;
};

} // namespace skv::obs
