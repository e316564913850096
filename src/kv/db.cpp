#include "kv/db.hpp"
#include "sim/check.hpp"


namespace skv::kv {

bool Database::key_is_expired(std::string_view key) const {
    const std::int64_t* at = expires_.find(key);
    return at != nullptr && *at <= clock_ms_();
}

ObjectPtr Database::lookup(std::string_view key) {
    if (key_is_expired(key)) {
        keys_.erase(key);
        expires_.erase(key);
        ++dirty_;
        return nullptr;
    }
    ObjectPtr* o = keys_.find(key);
    return o != nullptr ? *o : nullptr;
}

void Database::set(std::string_view key, ObjectPtr obj) {
    SKV_DCHECK(obj);
    keys_.set(Sds(key), std::move(obj));
    expires_.erase(key);
    ++dirty_;
}

void Database::set_keep_ttl(std::string_view key, ObjectPtr obj) {
    SKV_DCHECK(obj);
    keys_.set(Sds(key), std::move(obj));
    ++dirty_;
}

bool Database::remove(std::string_view key) {
    expires_.erase(key);
    if (keys_.erase(key)) {
        ++dirty_;
        return true;
    }
    return false;
}

bool Database::exists(std::string_view key) { return lookup(key) != nullptr; }

bool Database::set_expire(std::string_view key, std::int64_t at_ms) {
    if (lookup(key) == nullptr) return false;
    expires_.set(Sds(key), at_ms);
    ++dirty_;
    return true;
}

bool Database::persist(std::string_view key) {
    if (lookup(key) == nullptr) return false;
    if (expires_.erase(key)) {
        ++dirty_;
        return true;
    }
    return false;
}

std::optional<std::int64_t> Database::expire_at(std::string_view key) const {
    const std::int64_t* at = expires_.find(key);
    if (at == nullptr) return std::nullopt;
    return *at;
}

std::int64_t Database::ttl_ms(std::string_view key) {
    if (lookup(key) == nullptr) return -2;
    const std::int64_t* at = expires_.find(key);
    if (at == nullptr) return -1;
    const std::int64_t rem = *at - clock_ms_();
    return rem > 0 ? rem : 0;
}

void Database::clear() {
    keys_.clear();
    expires_.clear();
    ++dirty_;
}

std::size_t Database::active_expire_cycle(sim::Rng& rng, std::size_t samples) {
    std::size_t removed = 0;
    const std::int64_t now = clock_ms_();
    for (std::size_t i = 0; i < samples && !expires_.empty(); ++i) {
        auto [key, at] = expires_.random_entry(rng);
        if (key == nullptr) break;
        if (*at <= now) {
            const std::string k(key->view()); // erasing invalidates *key
            keys_.erase(k);
            expires_.erase(k);
            ++dirty_;
            ++removed;
        }
    }
    return removed;
}

std::vector<std::string> Database::all_keys() {
    // Collect first, then lazily expire, so dict mutation never races the
    // iteration.
    std::vector<std::string> candidates;
    candidates.reserve(keys_.size());
    keys_.for_each([&](const Sds& k, const ObjectPtr&) {
        candidates.push_back(k.str());
    });
    std::vector<std::string> out;
    out.reserve(candidates.size());
    for (auto& k : candidates) {
        if (lookup(k) != nullptr) out.push_back(std::move(k));
    }
    return out;
}

std::optional<std::string> Database::random_key(sim::Rng& rng) {
    while (!keys_.empty()) {
        auto [key, val] = keys_.random_entry(rng);
        (void)val;
        if (key == nullptr) return std::nullopt;
        const std::string k = key->str();
        if (lookup(k) != nullptr) return k;
        // expired and removed: sample again
    }
    return std::nullopt;
}

bool Database::equals(const Database& o) const {
    if (keys_.size() != o.keys_.size()) return false;
    bool same = true;
    keys_.for_each([&](const Sds& k, const ObjectPtr& v) {
        if (!same) return;
        const ObjectPtr* ov = o.keys_.find(k.view());
        if (ov == nullptr || !v->equals(**ov)) {
            same = false;
            return;
        }
        const std::int64_t* e = expires_.find(k.view());
        const std::int64_t* oe = o.expires_.find(k.view());
        if ((e == nullptr) != (oe == nullptr)) same = false;
        else if (e != nullptr && *e != *oe) same = false;
    });
    return same;
}

std::size_t Database::memory_bytes() const {
    std::size_t n = 0;
    keys_.for_each([&](const Sds& k, const ObjectPtr& v) {
        n += k.capacity() + sizeof(Sds) + v->memory_bytes();
    });
    n += expires_.size() * (sizeof(Sds) + sizeof(std::int64_t) + 16);
    return n;
}

} // namespace skv::kv
