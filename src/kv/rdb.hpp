#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "kv/db.hpp"

namespace skv::kv::rdb {

/// CRC-64 (Jones polynomial, as Redis's crc64) over `data`, starting from
/// `crc` (0 for a fresh checksum).
std::uint64_t crc64(std::uint64_t crc, std::string_view data);

enum class LoadStatus : std::uint8_t {
    kOk,
    kBadMagic,
    kTruncated,
    kCorrupt,
    kBadChecksum,
};

const char* to_string(LoadStatus s);

/// Serialize the whole keyspace (string values, expires included) into an
/// RDB-style snapshot: magic + version, per-key records with
/// length-encoded fields, an EOF opcode and a trailing CRC-64. This is the
/// "data file containing all key-value pairs" shipped during the initial
/// synchronization phase.
std::string save(const Database& db);

/// Replace `db`'s contents with the snapshot. On any non-kOk status the
/// database is left cleared (a half-loaded replica must not serve reads).
LoadStatus load(std::string_view bytes, Database& db);

} // namespace skv::kv::rdb
