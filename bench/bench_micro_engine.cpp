// Micro-benchmarks (google-benchmark) of the KV engine substrates that
// back the simulator's cost model: dict insert/lookup with incremental
// rehash, RESP parsing, the SET/GET command dispatch path, RDB round-trip,
// backlog append and latency-histogram recording. These are real
// data-structure costs on the build machine, reported so the cost model's
// relative magnitudes can be sanity-checked.

#include <benchmark/benchmark.h>

#include "kv/backlog.hpp"
#include "kv/command.hpp"
#include "kv/dict.hpp"
#include "kv/object.hpp"
#include "kv/rdb.hpp"
#include "kv/resp.hpp"
#include "sim/histogram.hpp"
#include "sim/rng.hpp"

using namespace skv;

namespace {

void BM_DictInsert(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        kv::Dict<int> d;
        for (std::uint64_t i = 0; i < n; ++i) {
            d.insert(kv::Sds("key:" + std::to_string(i)), static_cast<int>(i));
        }
        benchmark::DoNotOptimize(d.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DictInsert)->Arg(1000)->Arg(100000);

void BM_DictLookup(benchmark::State& state) {
    const std::uint64_t n = 100000;
    kv::Dict<int> d;
    for (std::uint64_t i = 0; i < n; ++i) {
        d.insert(kv::Sds("key:" + std::to_string(i)), static_cast<int>(i));
    }
    sim::Rng rng(1);
    for (auto _ : state) {
        const std::string k = "key:" + std::to_string(rng.next_below(n));
        benchmark::DoNotOptimize(d.find(k));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DictLookup);

void BM_RespParseCommand(benchmark::State& state) {
    const std::string wire =
        kv::resp::command({"SET", "key:12345", std::string(64, 'v')});
    for (auto _ : state) {
        kv::resp::RequestParser p;
        p.feed(wire);
        std::vector<std::string> argv;
        benchmark::DoNotOptimize(p.next(&argv));
        benchmark::DoNotOptimize(argv.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RespParseCommand);

void BM_CommandDispatchSet(benchmark::State& state) {
    kv::Database db([]() { return 0; });
    sim::Rng rng(3);
    const std::vector<std::string> argv{"SET", "k", std::string(64, 'v')};
    for (auto _ : state) {
        std::string reply;
        benchmark::DoNotOptimize(
            kv::CommandTable::instance().execute(db, rng, argv, reply));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CommandDispatchSet);

void BM_CommandDispatchGet(benchmark::State& state) {
    kv::Database db([]() { return 0; });
    sim::Rng rng(4);
    db.set("k", kv::Object::make_string(std::string(64, 'v')));
    const std::vector<std::string> argv{"GET", "k"};
    for (auto _ : state) {
        std::string reply;
        benchmark::DoNotOptimize(
            kv::CommandTable::instance().execute(db, rng, argv, reply));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CommandDispatchGet);

void BM_RdbRoundTrip(benchmark::State& state) {
    kv::Database db([]() { return 0; });
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        db.set("key:" + std::to_string(i),
               kv::Object::make_string(std::string(64, 'v')));
    }
    for (auto _ : state) {
        const std::string rdb = kv::rdb::save(db);
        kv::Database copy([]() { return 0; });
        benchmark::DoNotOptimize(kv::rdb::load(rdb, copy));
    }
}
BENCHMARK(BM_RdbRoundTrip)->Arg(1000)->Arg(10000);

void BM_BacklogAppend(benchmark::State& state) {
    kv::ReplBacklog backlog(1 << 20);
    const std::string chunk(128, 'r');
    for (auto _ : state) {
        backlog.append(chunk);
        benchmark::DoNotOptimize(backlog.master_offset());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_BacklogAppend);

void BM_HistogramRecord(benchmark::State& state) {
    sim::LatencyHistogram h;
    sim::Rng rng(5);
    for (auto _ : state) {
        h.record_ns(static_cast<std::int64_t>(rng.next_below(1'000'000)));
    }
    benchmark::DoNotOptimize(h.p99_ns());
}
BENCHMARK(BM_HistogramRecord);

} // namespace

BENCHMARK_MAIN();
