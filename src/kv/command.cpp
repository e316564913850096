#include "kv/command.hpp"

#include <algorithm>
#include <cctype>

#include "sim/check.hpp"

namespace skv::kv {

namespace {

std::string lower(std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

} // namespace

std::optional<std::int64_t> CommandContext::expire_deadline(long long value,
                                                            std::int64_t unit_ms,
                                                            bool absolute) {
    std::int64_t at = 0;
    if (__builtin_mul_overflow(value, unit_ms, &at) ||
        (!absolute && __builtin_add_overflow(at, db.now_ms(), &at))) {
        reply_error("ERR invalid expire time in '" + lower(argv[0]) + "' command");
        return std::nullopt;
    }
    return at;
}

CommandTable::CommandTable() {
    register_string_commands(*this);
    register_key_commands(*this);
    register_server_commands(*this);
    register_scan_commands(*this);
    register_bit_commands(*this);
}

const CommandTable& CommandTable::instance() {
    static const CommandTable table;
    return table;
}

void CommandTable::add(CommandSpec spec) {
    std::string key = lower(spec.name);
    SKV_CHECK(key.size() <= kMaxNameLen, "command name too long");
    SKV_CHECK(!commands_.contains(key), "duplicate command registration");
    commands_.emplace(std::move(key), std::move(spec));
}

const CommandSpec* CommandTable::lookup(std::string_view name) const {
    if (name.size() > kMaxNameLen) return nullptr; // longer than any command
    char buf[kMaxNameLen];
    std::transform(name.begin(), name.end(), buf, [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    auto it = commands_.find(std::string_view(buf, name.size()));
    return it == commands_.end() ? nullptr : &it->second;
}

ExecResult CommandTable::execute(Database& db, sim::Rng& rng,
                                 const std::vector<std::string>& argv,
                                 std::string& reply) const {
    ExecResult res;
    SKV_DCHECK(!argv.empty());
    const CommandSpec* spec = lookup(argv[0]);
    if (spec == nullptr) {
        reply += resp::error("ERR unknown command '" + argv[0] + "'");
        res.status = ExecResult::Status::kUnknownCommand;
        return res;
    }
    if (!spec->arity_ok(argv.size())) {
        reply += resp::error("ERR wrong number of arguments for '" +
                             lower(spec->name) + "' command");
        res.status = ExecResult::Status::kArityError;
        return res;
    }

    const std::size_t reply_start = reply.size();
    CommandContext ctx{db, rng, argv, reply, false, std::nullopt};
    spec->handler(ctx);

    res.is_write = spec->is_write();
    res.dirty = ctx.dirty;
    if (reply.size() > reply_start && reply[reply_start] == '-') {
        res.status = ExecResult::Status::kExecError;
    }
    if (res.is_write && res.dirty) {
        res.repl_argv = ctx.repl_override.has_value() ? std::move(*ctx.repl_override)
                                                      : argv;
    }
    return res;
}

} // namespace skv::kv
