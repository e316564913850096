#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kv/db.hpp"
#include "kv/resp.hpp"
#include "sim/rng.hpp"

namespace skv::kv {

/// Command attribute flags (subset of Redis's).
enum CommandFlags : unsigned {
    kCmdWrite = 1u << 0,    // may mutate the keyspace: replicated to slaves
    kCmdReadOnly = 1u << 1, // never mutates
    kCmdFast = 1u << 2,     // O(1)-ish
    kCmdAdmin = 1u << 3,    // server administration
};

/// Execution context handed to a command handler.
struct CommandContext {
    Database& db;
    sim::Rng& rng;
    const std::vector<std::string>& argv;
    std::string& reply; // RESP bytes are appended here

    /// Set by handlers that mutate state (drives dirty accounting and
    /// replication: only dirty writes propagate).
    bool dirty = false;

    /// Effect replication: when a command's effect depends on float
    /// formatting (INCRBYFLOAT) or on the clock (EXPIRE, SET EX), the
    /// handler records the deterministic command slaves must execute
    /// instead, exactly as Redis rewrites them in the replication stream.
    std::optional<std::vector<std::string>> repl_override;

    // -- handler conveniences ------------------------------------------------
    void reply_ok() { reply += resp::simple("OK"); }
    void reply_simple(std::string_view s) { reply += resp::simple(s); }
    void reply_error(std::string_view s) { reply += resp::error(s); }
    void reply_integer(long long v) { reply += resp::integer(v); }
    void reply_bulk(std::string_view s) { resp::append_bulk(reply, s); }
    /// A string object's value as a bulk reply, copied once, straight in.
    void reply_bulk(const Object& o) {
        char buf[kLongStrSize];
        resp::append_bulk(reply, o.value_view(buf));
    }
    void reply_array_header(std::size_t n) { resp::append_array_header(reply, n); }
    void reply_null() { reply += resp::null_bulk(); }

    /// Absolute deadline in ms for an expiry of `value` units of `unit_ms`,
    /// counted from now unless `absolute`. When the deadline does not fit
    /// in int64, replies "invalid expire time" (as Redis does) and returns
    /// nullopt; the caller must then leave the key untouched.
    std::optional<std::int64_t> expire_deadline(long long value, std::int64_t unit_ms,
                                                bool absolute);
};

struct CommandSpec {
    std::string name;
    /// Positive: exact argc (including the command name). Negative: at
    /// least |arity| arguments.
    int arity;
    unsigned flags;
    std::function<void(CommandContext&)> handler;

    [[nodiscard]] bool is_write() const { return (flags & kCmdWrite) != 0; }
    [[nodiscard]] bool arity_ok(std::size_t argc) const {
        if (arity >= 0) return argc == static_cast<std::size_t>(arity);
        return argc >= static_cast<std::size_t>(-arity);
    }
};

/// Outcome of dispatching one command.
struct ExecResult {
    enum class Status : std::uint8_t {
        kOk,
        kUnknownCommand,
        kArityError,
        kExecError, // handler replied with -ERR
    };
    Status status = Status::kOk;
    bool dirty = false;
    bool is_write = false;
    /// The command to feed to the replication stream (argv or the
    /// handler's deterministic rewrite); empty when nothing to replicate.
    std::vector<std::string> repl_argv;
};

/// The command dispatch table. One immutable instance serves every server
/// in the simulation.
class CommandTable {
public:
    CommandTable();

    static const CommandTable& instance();

    [[nodiscard]] const CommandSpec* lookup(std::string_view name) const;

    /// Dispatch `argv` against `db`, appending the RESP reply to `reply`.
    ExecResult execute(Database& db, sim::Rng& rng,
                       const std::vector<std::string>& argv,
                       std::string& reply) const;

    [[nodiscard]] std::size_t size() const { return commands_.size(); }
    template <typename Fn> // Fn(const CommandSpec&)
    void for_each(Fn&& fn) const {
        for (const auto& [name, spec] : commands_) fn(spec);
    }

    void add(CommandSpec spec);

private:
    /// Longest registrable name; lookup lower-cases into a buffer this big.
    static constexpr std::size_t kMaxNameLen = 32;

    std::map<std::string, CommandSpec, std::less<>> commands_; // lower-cased name
};

/// Glob-style pattern match (Redis stringmatchlen): *, ?, [class], \escape.
/// Used by KEYS and SCAN's MATCH option.
bool glob_match(std::string_view pattern, std::string_view str);

// Per-family registration (defined in commands_*.cpp).
void register_string_commands(CommandTable& t);
void register_key_commands(CommandTable& t);
void register_server_commands(CommandTable& t);
void register_scan_commands(CommandTable& t);
void register_bit_commands(CommandTable& t);

} // namespace skv::kv
