/**
 * @file
 * Event-engine microbenchmark: the ladder-queue sim::EventQueue
 * against the retained binary-heap engine (tests/heap_event_queue.hh)
 * on three workloads:
 *
 *   schedule_drain  schedule a large batch at random offsets, drain
 *   cancel_heavy    the timer-restart pattern (arm a far-out timer,
 *                   do a little work, cancel, re-arm) that made the
 *                   old engine's lazily-reaped heap balloon
 *   mixed           a live population with interleaved schedule /
 *                   execute / cancel, shaped like NIC + RTO traffic
 *   sparse_stream   one packet stream 150-300 ns apart, each packet
 *                   scheduling its successor and re-arming an RTO
 *                   timer; also reports the ladder's wheel scans per
 *                   executed event, which must stay <= 0.25 (the
 *                   imminent window spans the gaps, docs/ENGINE.md)
 *
 * Also replays mixed and sparse_stream twice on the new engine and
 * compares order-sensitive digests of the execution sequences, so the
 * CI smoke run (scripts/check.sh tier 5) exercises the determinism
 * contract.
 *
 * Emits BENCH_engine.json (override with --json=FILE). Exit status: 1
 * on a determinism mismatch or a scans-per-event gate failure (both
 * counts, never timing noise), 2 on a sub-3x cancel_heavy speedup.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"
#include "tests/heap_event_queue.hh"

using namespace npf;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Stand-in for the simulator's per-packet delivery closures (an
 * ib::Packet or eth::Frame plus a peer pointer, ~80 bytes): big
 * enough to defeat std::function's small-buffer optimization, small
 * enough for the event queue's inline Delegate storage.
 */
struct PacketLike
{
    std::uint64_t seq, key, a, b, c, d, e;
    std::uint32_t len, flags;
};

/** Schedule @p n packet deliveries at now + U(1us, 10ms), drain. */
template <typename Engine>
std::uint64_t
scheduleDrain(Engine &eq, std::uint64_t n, std::uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<sim::Time> d(sim::kMicrosecond,
                                               10 * sim::kMillisecond);
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketLike pkt{};
        pkt.seq = i;
        eq.scheduleAfter(d(rng), [&sink, pkt] { sink += pkt.seq; },
                         "bench.engine_speed.packet");
    }
    eq.run();
    return 2 * n; // one schedule + one execution per event
}

/**
 * The timer-restart pattern: every packet re-arms the connection's
 * retransmit, delayed-ack, and idle-sweep timers (the tcp.rto /
 * ib.retransmit / load sweep trio), cancelling the previous
 * generation. Almost every timer dies unfired; the old engine kept
 * each corpse in its heap until simulated time passed its deadline,
 * so the structure ballooned with dead entries that every push and
 * pop still had to sift around.
 */
template <typename Engine>
std::uint64_t
cancelHeavy(Engine &eq, std::uint64_t n)
{
    static constexpr sim::Time kHorizon[3] = {
        50 * sim::kMillisecond,  // delayed ack
        200 * sim::kMillisecond, // retransmit
        sim::kSecond,            // idle sweep
    };
    std::uint64_t sink = 0;
    decltype(eq.schedule(0, [] {})) timers[3] = {};
    for (auto &t : timers)
        t = eq.scheduleAfter(kHorizon[0], [&sink] { ++sink; },
                             "bench.engine_speed.timer");
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketLike pkt{};
        pkt.seq = i;
        eq.scheduleAfter(sim::kMicrosecond,
                         [&sink, pkt] { sink += pkt.seq; },
                         "bench.engine_speed.packet");
        eq.step();
        for (unsigned t = 0; t < 3; ++t) {
            eq.cancel(timers[t]);
            timers[t] = eq.scheduleAfter(
                kHorizon[t], [&sink] { ++sink; }, "bench.engine_speed.timer");
        }
    }
    eq.run();
    return 8 * n; // schedule + execute + 3 x (cancel + re-arm)
}

/**
 * Mixed traffic against a standing population: 60% schedule, 25%
 * execute-next, 15% cancel a recent event. Returns an order-sensitive
 * digest via @p digest so a replay can prove determinism.
 */
template <typename Engine>
std::uint64_t
mixed(Engine &eq, std::uint64_t n, std::uint32_t seed,
      std::uint64_t *digest = nullptr)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<sim::Time> delay(100, sim::kMillisecond);
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    std::vector<decltype(eq.schedule(0, [] {}))> recent;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t r = rng() % 100;
        if (r < 60) { // schedule a packet delivery
            PacketLike pkt{};
            pkt.seq = i;
            auto id = eq.scheduleAfter(
                delay(rng),
                [&mix, &eq, pkt] { mix(eq.now() ^ pkt.seq); },
                "bench.engine_speed.packet");
            if (recent.size() < 4096)
                recent.push_back(id);
        } else if (r < 85) { // execute next
            eq.step();
        } else if (!recent.empty()) { // cancel a recent event
            std::size_t k = rng() % recent.size();
            eq.cancel(recent[k]);
            recent[k] = recent.back();
            recent.pop_back();
        }
    }
    eq.run();
    if (digest)
        *digest = h;
    return n + eq.stats().executed;
}

/**
 * NIC-like sparse stream: @p n packets 150-300 ns apart, each
 * scheduling its successor, then cancelling the connection's RTO
 * timer and re-arming it 1 ms out. Returns an order-sensitive digest via
 * @p digest.
 */
template <typename Engine>
std::uint64_t
sparseStream(Engine &eq, std::uint64_t n, std::uint64_t *digest = nullptr)
{
    struct Stream
    {
        Engine &eq;
        std::uint64_t left;
        decltype(eq.schedule(0, [] {})) rto{};
        std::uint64_t h = 1469598103934665603ull; // FNV offset basis

        void
        packet()
        {
            h = (h ^ (eq.now() + left)) * 1099511628211ull;
            if (--left != 0)
                eq.scheduleAfter(150 + (left * 37) % 151,
                                 [this] { packet(); },
                                 "bench.engine_speed.packet");
            eq.cancel(rto);
            rto = eq.scheduleAfter(sim::kMillisecond, [] {},
                                   "bench.engine_speed.rto");
        }
    } s{eq, n};
    eq.schedule(eq.now(), [&s] { s.packet(); }, "bench.engine_speed.packet");
    eq.run();
    if (digest)
        *digest = s.h;
    return 4 * n; // schedule + execute + cancel + re-arm per packet
}

struct Result
{
    const char *workload;
    const char *engine;
    std::uint64_t ops;
    double seconds;

    double opsPerSec() const { return double(ops) / seconds; }
};

template <typename Fn>
Result
timed(const char *workload, const char *engine, Fn fn)
{
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ops = fn();
    Result r{workload, engine, ops, secondsSince(t0)};
    std::printf("  %-16s %-8s %12llu ops  %8.3f s  %12.0f ops/s\n",
                r.workload, r.engine,
                static_cast<unsigned long long>(r.ops), r.seconds,
                r.opsPerSec());
    std::fflush(stdout);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = "BENCH_engine.json";
    std::uint64_t scale = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            scale = 8; // CI: divide workload sizes by 8
    }

    const std::uint64_t kDrainN = 1'000'000 / scale;
    const std::uint64_t kCancelN = 500'000 / scale;
    const std::uint64_t kMixedN = 1'000'000 / scale;
    const std::uint64_t kSparseN = 1'000'000 / scale;
    constexpr double kMaxScansPerEvent = 0.25;

    std::printf("engine_speed: ladder EventQueue vs binary-heap "
                "oracle\n");

    std::vector<Result> results;
    auto ladder = [&](auto fn) {
        sim::EventQueue eq;
        return fn(eq);
    };
    auto heap = [&](auto fn) {
        simtest::HeapEventQueue eq;
        return fn(eq);
    };

    results.push_back(timed("schedule_drain", "ladder", [&] {
        return ladder([&](auto &eq) { return scheduleDrain(eq, kDrainN, 7); });
    }));
    results.push_back(timed("schedule_drain", "heap", [&] {
        return heap([&](auto &eq) { return scheduleDrain(eq, kDrainN, 7); });
    }));
    results.push_back(timed("cancel_heavy", "ladder", [&] {
        return ladder([&](auto &eq) { return cancelHeavy(eq, kCancelN); });
    }));
    results.push_back(timed("cancel_heavy", "heap", [&] {
        return heap([&](auto &eq) { return cancelHeavy(eq, kCancelN); });
    }));
    results.push_back(timed("mixed", "ladder", [&] {
        return ladder([&](auto &eq) { return mixed(eq, kMixedN, 11); });
    }));
    results.push_back(timed("mixed", "heap", [&] {
        return heap([&](auto &eq) { return mixed(eq, kMixedN, 11); });
    }));
    double scansPerEvent = 0;
    results.push_back(timed("sparse_stream", "ladder", [&] {
        return ladder([&](auto &eq) {
            std::uint64_t ops = sparseStream(eq, kSparseN);
            scansPerEvent = double(eq.stats().wheelScans) /
                            double(eq.stats().executed);
            return ops;
        });
    }));
    results.push_back(timed("sparse_stream", "heap", [&] {
        return heap([&](auto &eq) { return sparseStream(eq, kSparseN); });
    }));
    bool scansOk = scansPerEvent <= kMaxScansPerEvent;
    std::printf("  sparse_stream    wheel scans per event %.3f "
                "(gate <= %.2f) %s\n",
                scansPerEvent, kMaxScansPerEvent, scansOk ? "PASS" : "FAIL");

    // Determinism replay: the same op streams twice through the new
    // engine must execute in the identical order.
    std::uint64_t d1 = 0, d2 = 0, s1 = 0, s2 = 0;
    {
        sim::EventQueue a, b, c, d;
        mixed(a, kMixedN / 4, 23, &d1);
        mixed(b, kMixedN / 4, 23, &d2);
        sparseStream(c, kSparseN / 4, &s1);
        sparseStream(d, kSparseN / 4, &s2);
    }
    bool deterministic = d1 == d2 && s1 == s2;
    std::printf("  determinism replay: %s (digests %016llx %016llx)\n",
                deterministic ? "ok" : "MISMATCH",
                static_cast<unsigned long long>(d1),
                static_cast<unsigned long long>(s1));

    std::FILE *js = std::fopen(json_path, "w");
    if (!js) {
        std::perror("fopen BENCH_engine.json");
        return 1;
    }
    std::fprintf(js, "{\n  \"bench\": \"engine_speed\",\n");
    std::fprintf(js, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::fprintf(js,
                     "    {\"workload\": \"%s\", \"engine\": \"%s\", "
                     "\"ops\": %llu, \"seconds\": %.6f, "
                     "\"ops_per_sec\": %.0f}%s\n",
                     r.workload, r.engine,
                     static_cast<unsigned long long>(r.ops), r.seconds,
                     r.opsPerSec(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(js, "  ],\n  \"speedup_vs_heap\": {\n");
    bool meets = true;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        double speedup =
            results[i].opsPerSec() / results[i + 1].opsPerSec();
        if (std::strcmp(results[i].workload, "cancel_heavy") == 0)
            meets = speedup >= 3.0;
        std::printf("  %-16s speedup %.2fx\n", results[i].workload,
                    speedup);
        std::fprintf(js, "    \"%s\": %.2f%s\n", results[i].workload,
                     speedup, i + 3 < results.size() ? "," : "");
    }
    std::fprintf(js,
                 "  },\n  \"sparse_stream_scans_per_event\": %.4f,\n"
                 "  \"scans_per_event_ok\": %s,\n"
                 "  \"determinism_replay\": \"%s\"\n}\n",
                 scansPerEvent, scansOk ? "true" : "false",
                 deterministic ? "ok" : "mismatch");
    std::fclose(js);
    std::printf("  wrote %s\n", json_path);

    if (!deterministic || !scansOk)
        return 1;
    if (!meets) {
        std::printf("  WARNING: cancel_heavy speedup below 3x target\n");
        return 2;
    }
    return 0;
}
