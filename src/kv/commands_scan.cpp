#include "kv/command.hpp"
#include "kv/sds.hpp"

namespace skv::kv {

namespace {

/// SCAN's options: [MATCH pattern] [COUNT n].
struct ScanOptions {
    std::string pattern;
    bool has_pattern = false;
    long long count = 10;
    bool bad = false;
};

ScanOptions parse_scan_options(CommandContext& ctx) {
    ScanOptions o;
    for (std::size_t i = 2; i < ctx.argv.size(); ++i) {
        const std::string& a = ctx.argv[i];
        if (iequals(a, "MATCH") && i + 1 < ctx.argv.size()) {
            o.pattern = ctx.argv[i + 1];
            o.has_pattern = true;
            ++i;
        } else if (iequals(a, "COUNT") && i + 1 < ctx.argv.size()) {
            const auto n = string2ll(ctx.argv[i + 1]);
            if (!n.has_value() || *n <= 0) {
                ctx.reply_error("ERR syntax error");
                o.bad = true;
                return o;
            }
            o.count = *n;
            ++i;
        } else {
            ctx.reply_error("ERR syntax error");
            o.bad = true;
            return o;
        }
    }
    return o;
}

/// SCAN cursor [MATCH pattern] [COUNT n] — incremental keyspace iteration
/// with the usual guarantee: keys present for the whole scan are returned
/// at least once, and the cursor is stable across rehashes.
void cmd_scan(CommandContext& ctx) {
    const auto cursor = string2ll(ctx.argv[1]);
    if (!cursor.has_value() || *cursor < 0) {
        ctx.reply_error("ERR invalid cursor");
        return;
    }
    const ScanOptions o = parse_scan_options(ctx);
    if (o.bad) return;

    std::vector<std::string> out;
    auto c = static_cast<std::uint64_t>(*cursor);
    long long buckets = 0;
    do {
        c = ctx.db.keys().scan(c, [&](const Sds& k, const ObjectPtr&) {
            if (!o.has_pattern || glob_match(o.pattern, k.view())) out.push_back(k.str());
        });
        ++buckets;
    } while (c != 0 && buckets < o.count);
    ctx.reply_array_header(2);
    ctx.reply_bulk(ll2string(static_cast<long long>(c)));
    ctx.reply_array_header(out.size());
    for (const auto& k : out) ctx.reply_bulk(k);
}

/// GETDEL: GET then delete (Redis 6.2).
void cmd_getdel(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_null();
        return;
    }
    ctx.reply_bulk(*o);
    ctx.db.remove(ctx.argv[1]);
    ctx.dirty = true;
    ctx.repl_override = std::vector<std::string>{"DEL", ctx.argv[1]};
}

/// GETEX key [EX s | PX ms | PERSIST] — GET that can touch the TTL.
void cmd_getex(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_null();
        return;
    }
    if (ctx.argv.size() == 2) {
        ctx.reply_bulk(*o);
        return;
    }
    const std::string& opt = ctx.argv[2];
    if (iequals(opt, "PERSIST") && ctx.argv.size() == 3) {
        if (ctx.db.persist(ctx.argv[1])) {
            ctx.dirty = true;
            ctx.repl_override = std::vector<std::string>{"PERSIST", ctx.argv[1]};
        }
        ctx.reply_bulk(*o);
        return;
    }
    if ((iequals(opt, "EX") || iequals(opt, "PX")) && ctx.argv.size() == 4) {
        const auto v = string2ll(ctx.argv[3]);
        if (!v.has_value() || *v <= 0) {
            ctx.reply_error("ERR invalid expire time in 'getex' command");
            return;
        }
        const auto at = ctx.expire_deadline(*v, iequals(opt, "EX") ? 1000 : 1, false);
        if (!at.has_value()) return;
        ctx.db.set_expire(ctx.argv[1], *at);
        ctx.dirty = true;
        ctx.repl_override =
            std::vector<std::string>{"PEXPIREAT", ctx.argv[1], ll2string(*at)};
        ctx.reply_bulk(*o);
        return;
    }
    ctx.reply_error("ERR syntax error");
}

} // namespace

void register_scan_commands(CommandTable& t) {
    t.add({"SCAN", -2, kCmdReadOnly, cmd_scan});
    t.add({"GETDEL", 2, kCmdWrite | kCmdFast, cmd_getdel});
    t.add({"GETEX", -2, kCmdWrite | kCmdFast, cmd_getex});
}

} // namespace skv::kv
