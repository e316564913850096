#include <algorithm>

#include "kv/command.hpp"
#include "kv/sds.hpp"

namespace skv::kv {

namespace {

void cmd_del(CommandContext& ctx) {
    long long removed = 0;
    for (std::size_t i = 1; i < ctx.argv.size(); ++i) {
        if (ctx.db.remove(ctx.argv[i])) ++removed;
    }
    if (removed > 0) ctx.dirty = true;
    ctx.reply_integer(removed);
}

void cmd_exists(CommandContext& ctx) {
    long long n = 0;
    for (std::size_t i = 1; i < ctx.argv.size(); ++i) {
        if (ctx.db.exists(ctx.argv[i])) ++n;
    }
    ctx.reply_integer(n);
}

/// EXPIRE/PEXPIRE/EXPIREAT/PEXPIREAT share one body, differing in unit and
/// base. All replicate as an absolute PEXPIREAT so master and slaves agree
/// on the deadline.
void generic_expire(CommandContext& ctx, std::int64_t unit_ms, bool absolute) {
    const auto v = string2ll(ctx.argv[2]);
    if (!v.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    const auto at_ms = ctx.expire_deadline(*v, unit_ms, absolute);
    if (!at_ms.has_value()) return;
    if (!ctx.db.exists(ctx.argv[1])) {
        ctx.reply_integer(0);
        return;
    }
    if (*at_ms <= ctx.db.now_ms()) {
        // Already in the past: delete, and replicate the deletion.
        ctx.db.remove(ctx.argv[1]);
        ctx.dirty = true;
        ctx.repl_override = std::vector<std::string>{"DEL", ctx.argv[1]};
        ctx.reply_integer(1);
        return;
    }
    ctx.db.set_expire(ctx.argv[1], *at_ms);
    ctx.dirty = true;
    ctx.repl_override =
        std::vector<std::string>{"PEXPIREAT", ctx.argv[1], ll2string(*at_ms)};
    ctx.reply_integer(1);
}

void cmd_ttl(CommandContext& ctx, bool ms) {
    const std::int64_t t = ctx.db.ttl_ms(ctx.argv[1]);
    if (t < 0) {
        ctx.reply_integer(t);
        return;
    }
    ctx.reply_integer(ms ? t : (t + 999) / 1000);
}

void cmd_persist(CommandContext& ctx) {
    if (ctx.db.persist(ctx.argv[1])) {
        ctx.dirty = true;
        ctx.reply_integer(1);
    } else {
        ctx.reply_integer(0);
    }
}

void cmd_type(CommandContext& ctx) {
    ctx.reply_simple(ctx.db.exists(ctx.argv[1]) ? "string" : "none");
}

} // namespace

/// Glob-style matcher (Redis stringmatchlen): *, ?, [class], escaping.
bool glob_match(std::string_view pattern, std::string_view str) {
    std::size_t p = 0;
    std::size_t s = 0;
    std::size_t star_p = std::string_view::npos;
    std::size_t star_s = 0;
    while (s < str.size()) {
        if (p < pattern.size()) {
            const char pc = pattern[p];
            if (pc == '*') {
                star_p = p++;
                star_s = s;
                continue;
            }
            if (pc == '?' || (pc == '\\' && p + 1 < pattern.size() &&
                              pattern[p + 1] == str[s]) ||
                pc == str[s]) {
                p += (pc == '\\') ? 2 : 1;
                ++s;
                continue;
            }
            if (pc == '[') {
                std::size_t q = p + 1;
                bool negate = q < pattern.size() && pattern[q] == '^';
                if (negate) ++q;
                bool matched = false;
                while (q < pattern.size() && pattern[q] != ']') {
                    if (q + 2 < pattern.size() && pattern[q + 1] == '-' &&
                        pattern[q + 2] != ']') {
                        if (str[s] >= pattern[q] && str[s] <= pattern[q + 2]) {
                            matched = true;
                        }
                        q += 3;
                    } else {
                        if (pattern[q] == str[s]) matched = true;
                        ++q;
                    }
                }
                if (q < pattern.size() && matched != negate) {
                    p = q + 1;
                    ++s;
                    continue;
                }
            }
        }
        if (star_p != std::string_view::npos) {
            p = star_p + 1;
            s = ++star_s;
            continue;
        }
        return false;
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

namespace {

void cmd_keys(CommandContext& ctx) {
    const std::string& pattern = ctx.argv[1];
    std::vector<std::string> matched;
    for (auto& k : ctx.db.all_keys()) {
        if (glob_match(pattern, k)) matched.push_back(std::move(k));
    }
    std::sort(matched.begin(), matched.end()); // deterministic output
    ctx.reply_array_header(matched.size());
    for (const auto& k : matched) ctx.reply_bulk(k);
}

void cmd_randomkey(CommandContext& ctx) {
    const auto k = ctx.db.random_key(ctx.rng);
    if (!k.has_value()) {
        ctx.reply_null();
    } else {
        ctx.reply_bulk(*k);
    }
}

void cmd_rename(CommandContext& ctx) {
    if (ctx.argv[1] == ctx.argv[2]) {
        if (!ctx.db.exists(ctx.argv[1])) {
            ctx.reply_error("ERR no such key");
            return;
        }
        ctx.reply_ok();
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_error("ERR no such key");
        return;
    }
    const auto expire = ctx.db.expire_at(ctx.argv[1]);
    ctx.db.remove(ctx.argv[1]);
    ctx.db.set(ctx.argv[2], std::move(o));
    if (expire.has_value()) ctx.db.set_expire(ctx.argv[2], *expire);
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_renamenx(CommandContext& ctx) {
    if (!ctx.db.exists(ctx.argv[1])) {
        ctx.reply_error("ERR no such key");
        return;
    }
    if (ctx.db.exists(ctx.argv[2]) || ctx.argv[1] == ctx.argv[2]) {
        ctx.reply_integer(0);
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    const auto expire = ctx.db.expire_at(ctx.argv[1]);
    ctx.db.remove(ctx.argv[1]);
    ctx.db.set(ctx.argv[2], std::move(o));
    if (expire.has_value()) ctx.db.set_expire(ctx.argv[2], *expire);
    ctx.dirty = true;
    ctx.reply_integer(1);
}

void cmd_object(CommandContext& ctx) {
    if (!iequals(ctx.argv[1], "ENCODING") || ctx.argv.size() != 3) {
        ctx.reply_error("ERR Unknown OBJECT subcommand or wrong number of arguments");
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[2]);
    if (o == nullptr) {
        ctx.reply_null();
        return;
    }
    ctx.reply_bulk(to_string(o->encoding()));
}

} // namespace

void register_key_commands(CommandTable& t) {
    t.add({"DEL", -2, kCmdWrite, cmd_del});
    t.add({"EXISTS", -2, kCmdRead, cmd_exists});
    t.add({"EXPIRE", 3, kCmdWrite,
           [](CommandContext& ctx) { generic_expire(ctx, 1000, false); }});
    t.add({"PEXPIRE", 3, kCmdWrite,
           [](CommandContext& ctx) { generic_expire(ctx, 1, false); }});
    t.add({"EXPIREAT", 3, kCmdWrite,
           [](CommandContext& ctx) { generic_expire(ctx, 1000, true); }});
    t.add({"PEXPIREAT", 3, kCmdWrite,
           [](CommandContext& ctx) { generic_expire(ctx, 1, true); }});
    t.add({"TTL", 2, kCmdRead,
           [](CommandContext& ctx) { cmd_ttl(ctx, false); }});
    t.add({"PTTL", 2, kCmdRead,
           [](CommandContext& ctx) { cmd_ttl(ctx, true); }});
    t.add({"PERSIST", 2, kCmdWrite, cmd_persist});
    t.add({"TYPE", 2, kCmdRead, cmd_type});
    t.add({"KEYS", 2, kCmdRead, cmd_keys});
    t.add({"RANDOMKEY", 1, kCmdRead, cmd_randomkey});
    t.add({"RENAME", 3, kCmdWrite, cmd_rename});
    t.add({"RENAMENX", 3, kCmdWrite, cmd_renamenx});
    t.add({"OBJECT", -2, kCmdRead, cmd_object});
}

} // namespace skv::kv
