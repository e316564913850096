#pragma once

// The engine-conformance fixture shared by the command suites
// (kv_command_test.cpp, kv_command_edge_test.cpp, kv_bits_command_test.cpp,
// kv_scan_command_test.cpp): commands run against a fresh database on a
// controllable clock, and the raw RESP reply of the last one is kept. Each
// suite picks its own RNG seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kv/command.hpp"

namespace skv::kv {

template <std::uint64_t Seed>
class EngineTest : public ::testing::Test {
protected:
    ExecResult run(const std::vector<std::string>& argv) {
        last_reply_.clear();
        return CommandTable::instance().execute(db_, rng_, argv, last_reply_);
    }

    void expect_reply(const std::vector<std::string>& argv, std::string_view want) {
        run(argv);
        EXPECT_EQ(last_reply_, want);
    }

    [[nodiscard]] bool errored() const {
        return !last_reply_.empty() && last_reply_.front() == '-';
    }

    std::int64_t now_ms_ = 1000;
    sim::Rng rng_{Seed};
    Database db_{[this] { return now_ms_; }};
    std::string last_reply_;
};

} // namespace skv::kv
