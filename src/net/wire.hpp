#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace skv::net {

/// Every integer on the node-message wire is little-endian: append the low
/// `bytes` bytes of `v` to `out`, least significant first.
inline void put_le(std::string& out, std::uint64_t v, std::size_t bytes = 8) {
    for (std::size_t i = 0; i < bytes; ++i) {
        out.push_back(static_cast<char>(v >> (8 * i)));
    }
}

/// The little-endian integer in the `bytes` bytes of `in` from `at`; bytes
/// past the end of `in` read as zero.
inline std::uint64_t get_le(std::string_view in, std::size_t at,
                            std::size_t bytes = 8) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes && at + i < in.size(); ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    }
    return v;
}

} // namespace skv::net
