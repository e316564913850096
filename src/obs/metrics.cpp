#include "obs/metrics.hpp"

namespace skv::obs {

Counter Registry::counter_handle(const std::string& name) {
    auto it = counter_index_.find(name);
    if (it == counter_index_.end()) {
        counter_cells_.push_back(0);
        it = counter_index_.emplace(name, counter_cells_.size() - 1).first;
    }
    return Counter(&counter_cells_[it->second]);
}

void Registry::incr(const std::string& name, std::uint64_t delta) {
    counter_handle(name).incr(delta);
}

std::uint64_t Registry::counter(const std::string& name) const {
    const auto it = counter_index_.find(name);
    return it != counter_index_.end() ? counter_cells_[it->second] : 0;
}

std::string Registry::format() const {
    std::string out;
    for (const auto& [k, idx] : counter_index_) {
        out += k;
        out += '=';
        out += std::to_string(counter_cells_[idx]);
        out += '\n';
    }
    return out;
}

} // namespace skv::obs
