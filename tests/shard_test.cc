/**
 * @file
 * Sharded-engine tests (docs/SHARDING.md): the differential oracle —
 * the same cluster workload partitioned over 1, 2 and 4 shards must
 * produce bit-identical per-rank observables — plus SPSC-ring FIFO
 * properties, boundary-event ordering, the per-shard sync accounting
 * (window bound, a dense shard beside an idle one, a run with both
 * workers on one CPU), and the debug-build owner-thread assertions on
 * pools and the metrics registry.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "hpc/cluster.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/shard.hh"

using namespace npf;

namespace {

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

} // namespace

// ---------------------------------------------------------------
// SPSC ring properties
// ---------------------------------------------------------------

TEST(SpscRing, FifoUnderConcurrentStress)
{
    // Small capacity so the test exercises wraparound and the full
    // ring (producer-side) path many times over.
    sim::SpscRing ring(64);
    constexpr std::uint64_t kMsgs = 200000;

    std::thread producer([&ring] {
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
            sim::BoundaryMsg m{};
            m.when = i * 3 + 1; // monotone, like a real sender clock
            m.orderKey = i;
            m.a = i ^ 0xabcdef;
            while (!ring.tryPush(m))
                std::this_thread::yield();
        }
    });

    std::uint64_t next = 0;
    sim::Time lastWhen = 0;
    bool ordered = true, payloadOk = true, monotone = true;
    while (next < kMsgs) {
        sim::BoundaryMsg m;
        if (!ring.tryPop(m)) {
            std::this_thread::yield();
            continue;
        }
        ordered = ordered && m.orderKey == next;
        payloadOk = payloadOk && m.a == (next ^ 0xabcdef);
        monotone = monotone && m.when >= lastWhen;
        lastWhen = m.when;
        ++next;
    }
    producer.join();
    EXPECT_TRUE(ordered) << "ring reordered messages";
    EXPECT_TRUE(payloadOk) << "ring corrupted a payload";
    EXPECT_TRUE(monotone) << "timestamps regressed across the ring";
    sim::BoundaryMsg m;
    EXPECT_FALSE(ring.tryPop(m)) << "ring invented a message";
}

TEST(SpscRing, CachedCursorsSeeFullAndEmptyExactly)
{
    // Each side reloads the other's cursor only when the ring looks
    // full (producer) or empty (consumer); single-threaded, those
    // reloads must still make full and empty exact, lap after lap.
    sim::SpscRing ring(8);
    sim::BoundaryMsg in{}, out{};
    std::uint64_t pushed = 0, popped = 0;
    for (int lap = 0; lap < 5; ++lap) {
        while (ring.tryPush(in))
            in.orderKey = ++pushed;
        EXPECT_EQ(pushed - popped, ring.capacity()) << "lap " << lap;
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out.orderKey, popped++);
        EXPECT_TRUE(ring.tryPush(in)) << "a pop must make room at once";
        in.orderKey = ++pushed;
        while (ring.tryPop(out))
            EXPECT_EQ(out.orderKey, popped++);
        EXPECT_EQ(popped, pushed) << "lap " << lap;
    }
    EXPECT_EQ(ring.highWater(), ring.capacity());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    sim::SpscRing ring(100);
    EXPECT_GE(ring.capacity(), 100u);
    EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
}

// ---------------------------------------------------------------
// Boundary-event ordering in the event queue
// ---------------------------------------------------------------

TEST(BoundarySchedule, ExecutesInTimestampThenKeyOrder)
{
    sim::EventQueue eq;
    struct Rec
    {
        sim::Time when;
        std::uint64_t key;
        bool boundary;
    };
    std::vector<Rec> order;

    // Deterministically shuffled insertion: an LCG walks a set of
    // (when, key) pairs in scrambled order; execution must come out
    // sorted by (when, key) regardless.
    std::uint64_t lcg = 12345;
    constexpr unsigned kN = 512;
    std::vector<std::pair<sim::Time, std::uint64_t>> pairs;
    for (unsigned i = 0; i < kN; ++i)
        pairs.emplace_back(100 + (i % 17) * 50, i);
    for (unsigned i = kN; i > 1; --i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(pairs[i - 1], pairs[(lcg >> 33) % i]);
    }
    for (auto [when, key] : pairs)
        eq.scheduleBoundary(when, key, [&order, when = when, key = key] {
            order.push_back({when, key, true});
        });
    // Local events at the same ticks must run before same-tick
    // boundary events (the seq-domain split).
    for (unsigned t = 0; t < 17; ++t)
        eq.schedule(100 + t * 50, [&order, t] {
            order.push_back({100 + t * 50, t, false});
        });

    eq.runUntil(10000);
    ASSERT_EQ(order.size(), kN + 17);
    for (std::size_t i = 1; i < order.size(); ++i) {
        const Rec &a = order[i - 1], &b = order[i];
        ASSERT_LE(a.when, b.when) << "timestamp regressed at " << i;
        if (a.when == b.when) {
            // local-before-boundary, then key-ascending boundaries
            ASSERT_TRUE(!(a.boundary && !b.boundary))
                << "boundary ran before a same-tick local event";
            if (a.boundary && b.boundary)
                ASSERT_LT(a.key, b.key) << "orderKey inversion at " << i;
        }
    }
}

TEST(ShardedEngine, LoopbackAndCrossShardDelivery)
{
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 100;
    sim::ShardedEngine engine(cfg);

    std::atomic<int> at0{0}, at1{0};
    engine.invokeOn(0, [&] {
        engine.bind(0, 7, [&at0](const sim::BoundaryMsg &m) {
            EXPECT_EQ(m.a, 42u);
            ++at0;
        });
    });
    engine.invokeOn(1, [&] {
        engine.bind(1, 7, [&at1](const sim::BoundaryMsg &m) {
            EXPECT_EQ(m.a, 43u);
            ++at1;
        });
    });

    engine.invokeOn(0, [&] {
        sim::BoundaryMsg m{};
        m.when = 150;
        m.orderKey = 1;
        m.kind = 7;
        m.srcShard = 0;
        m.dstShard = 1;
        m.a = 43;
        engine.post(m); // cross-shard, honors the lookahead floor
        sim::BoundaryMsg l = m;
        l.dstShard = 0;
        l.a = 42;
        l.when = 10;
        engine.post(l); // loopback, no floor
    });
    engine.run(1000);
    EXPECT_EQ(at0.load(), 1);
    EXPECT_EQ(at1.load(), 1);
}

TEST(ShardedEngine, MakesProgressAtMinimalLookahead)
{
    // Regression: clocks used to publish "ran through here", which
    // livelocks at lookahead 1 — runTo = min(until, horizon - 1)
    // could never pass min_j(clock_j), every clock stayed at 0, and
    // run() never returned. Floor-semantics clocks (publish
    // runTo + 1) make one tick of lookahead sufficient: this
    // ping-pong relays a message every single tick, the worst case.
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 1;
    sim::ShardedEngine engine(cfg);

    constexpr sim::Time kUntil = 4000;
    std::atomic<std::uint64_t> hops{0};
    for (unsigned s = 0; s < 2; ++s) {
        engine.invokeOn(s, [&, s] {
            engine.bind(s, 1, [&, s](const sim::BoundaryMsg &m) {
                ++hops;
                sim::BoundaryMsg next = m;
                next.srcShard = std::uint16_t(s);
                next.dstShard = std::uint16_t(1 - s);
                next.when = m.when + 1; // == now + lookahead
                next.orderKey = m.orderKey + 1;
                if (next.when <= kUntil)
                    engine.post(next);
            });
        });
    }
    engine.invokeOn(0, [&] {
        sim::BoundaryMsg m{};
        m.when = 1;
        m.orderKey = 1;
        m.kind = 1;
        m.srcShard = 0;
        m.dstShard = 1;
        engine.post(m);
    });
    engine.run(kUntil);
    EXPECT_EQ(hops.load(), kUntil) << "one hop per tick, 1..kUntil";
}

namespace {

/**
 * Pins the calling thread, and the threads it spawns from then on
 * (shard workers inherit it), to the first CPU of its affinity mask;
 * restores the mask when destroyed.
 */
class PinToOneCpu
{
  public:
    PinToOneCpu()
    {
        EXPECT_EQ(sched_getaffinity(0, sizeof saved_, &saved_), 0);
        int cpu = 0;
        while (cpu < CPU_SETSIZE - 1 && !CPU_ISSET(cpu, &saved_))
            ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        EXPECT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    }

    ~PinToOneCpu()
    {
        EXPECT_EQ(sched_setaffinity(0, sizeof saved_, &saved_), 0);
    }

    PinToOneCpu(const PinToOneCpu &) = delete;
    PinToOneCpu &operator=(const PinToOneCpu &) = delete;

  private:
    cpu_set_t saved_;
};

} // namespace

TEST(ShardedEngine, MutualBurstThroughFullRingsDoesNotDeadlock)
{
    // Both shards burst far past the ring capacity at each other
    // inside one horizon window, twenty windows in a row. The
    // producers overrun both full rings at once; post() must drain
    // its own inbound rings while it waits, or A blocks pushing to
    // B's full ring while B blocks pushing to A's and neither ever
    // drains. Pinned to one CPU, the waits park (the other shard can
    // only drain once this one gives the CPU up), and every message
    // must still arrive exactly once.
    for (bool pinned : {false, true}) {
        SCOPED_TRACE(pinned ? "pinned to one CPU" : "unpinned");
        std::unique_ptr<PinToOneCpu> pin;
        if (pinned)
            pin = std::make_unique<PinToOneCpu>();
        sim::ShardedEngine::Config cfg;
        cfg.shards = 2;
        cfg.lookahead = 10;
        cfg.ringCapacity = 4;
        sim::ShardedEngine engine(cfg);

        constexpr unsigned kBurst = 64, kRounds = 20;
        std::vector<unsigned> got[2] = {std::vector<unsigned>(kBurst),
                                        std::vector<unsigned>(kBurst)};
        for (unsigned s = 0; s < 2; ++s) {
            engine.invokeOn(s, [&, s] {
                engine.bind(s, 1, [&got, s](const sim::BoundaryMsg &m) {
                    ++got[s][m.a];
                });
                for (unsigned r = 0; r < kRounds; ++r)
                    engine.queue(s).schedule(1 + 100 * r, [&, s, r] {
                        for (unsigned i = 0; i < kBurst; ++i) {
                            sim::BoundaryMsg m{};
                            m.when = engine.queue(s).now() + cfg.lookahead;
                            m.orderKey = (std::uint64_t(s + 1) << 32) |
                                         (r * kBurst + i);
                            m.kind = 1;
                            m.srcShard = std::uint16_t(s);
                            m.dstShard = std::uint16_t(1 - s);
                            m.a = i;
                            engine.post(m);
                        }
                    });
            });
        }
        engine.run(100 * kRounds);
        for (unsigned s = 0; s < 2; ++s)
            EXPECT_EQ(got[s], std::vector<unsigned>(kBurst, kRounds))
                << "shard " << s;
    }
}

TEST(ShardedEngineDeath, LookaheadViolationAborts)
{
    // The lookahead floor is enforced in ALL builds: a violating send
    // clamped into the receiver's past would silently break the
    // determinism contract, so post() aborts instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::ShardedEngine::Config cfg;
            cfg.shards = 2;
            cfg.lookahead = 100;
            sim::ShardedEngine engine(cfg);
            engine.invokeOn(1, [&] {
                engine.bind(1, 1, [](const sim::BoundaryMsg &) {});
            });
            engine.invokeOn(0, [&] {
                sim::BoundaryMsg m{};
                m.when = 99; // sender now() == 0: inside the window
                m.orderKey = 1;
                m.kind = 1;
                m.srcShard = 0;
                m.dstShard = 1;
                engine.post(m);
            });
            engine.run(1000);
        },
        "lookahead window");
}

TEST(ShardedEngineDeath, LivePoolObjectAtWorkerTeardownAborts)
{
    // Worker teardown frees the worker's per-thread pools and audits
    // them: an object still live there outlived its shard's worlds
    // and queue, which would otherwise be a silent leak.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::ShardedEngine::Config cfg;
            cfg.shards = 2;
            sim::ShardedEngine engine(cfg);
            engine.invokeOn(1, [] {
                static thread_local auto *pool =
                    sim::newThreadPool<int>("test.teardownPool");
                pool->create(7); // never released
            });
        },
        "test.teardownPool: 1 objects still live at thread teardown");
}

TEST(EventQueueDeath, BoundaryScheduledInThePastAborts)
{
    // scheduleBoundary never clamps a past delivery to now: that
    // would hide a causality violation as silent nondeterminism.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::EventQueue eq;
            eq.schedule(50, [] {});
            eq.runUntil(50);
            eq.scheduleBoundary(49, 1, [] {});
        },
        "boundary event in the past");
}

// ---------------------------------------------------------------
// Differential oracle: 1 shard vs N shards, bit-identical
// ---------------------------------------------------------------

namespace {

/**
 * Run a fixed ring-exchange workload on @p shards facets and digest
 * every per-rank observable that must not depend on the partition:
 * completion times, delivery order, QP wire counters, NPF counts.
 * (wrIds are facet-local and deliberately excluded.) The exchange
 * completes before 0.7 ms of simulated time.
 */
std::uint64_t
runPartitioned(unsigned ranks, unsigned shards,
               sim::Time lookahead = 500,
               sim::Time until = 100 * sim::kMillisecond)
{
    sim::ShardedEngine::Config ec;
    ec.shards = shards;
    // Any lookahead <= the cluster fabric's recordLookahead() (500
    // with the default config) is legal; smaller just syncs more.
    ec.lookahead = lookahead;
    sim::ShardedEngine engine(ec);

    std::vector<std::unique_ptr<hpc::Cluster>> facets(shards);
    // completions[rank] = times of that rank's sends+recvs, in the
    // order they completed on the owning shard (single-threaded per
    // rank, so no synchronization needed).
    std::vector<std::vector<sim::Time>> completions(ranks);

    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&, s] {
            hpc::ClusterConfig cfg;
            cfg.ranks = ranks;
            cfg.memoryPerRank = 1ull << 30;
            cfg.engine = &engine;
            cfg.shard = s;
            cfg.shards = shards;
            facets[s] = std::make_unique<hpc::Cluster>(
                engine.queue(s), cfg, hpc::RegMode::Npf);
        });
    }
    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&, s] {
            hpc::Cluster &c = *facets[s];
            // Ring exchange, one eager and one rendezvous message per
            // direction, posted up front.
            for (unsigned r = 0; r < ranks; ++r) {
                if (!c.ownsRank(r))
                    continue;
                unsigned next = (r + 1) % ranks;
                unsigned prev = (r + ranks - 1) % ranks;
                for (std::size_t len : {std::size_t(4096),
                                        std::size_t(256 * 1024)}) {
                    mem::VirtAddr sb = c.allocBuffer(r, len);
                    mem::VirtAddr rb = c.allocBuffer(r, len);
                    c.irecv(r, prev, rb, len, [&, r, s] {
                        completions[r].push_back(
                            engine.queue(s).now());
                    });
                    c.isend(r, next, sb, len, [&, r, s] {
                        completions[r].push_back(
                            engine.queue(s).now());
                    });
                }
            }
        });
    }

    engine.run(until);

    // Gather per-rank counters first (on the owning threads), then
    // digest strictly in rank order so the digest cannot depend on
    // which shard owned which rank.
    std::vector<std::uint64_t> npfs(ranks), pages(ranks);
    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&] {
            hpc::Cluster &c = *facets[s];
            for (unsigned r = 0; r < ranks; ++r) {
                if (!c.ownsRank(r))
                    continue;
                npfs[r] = c.npfc(r).stats().npfs;
                pages[r] = c.npfc(r).stats().pagesMapped;
            }
            facets[s].reset(); // die on the thread that built them
        });
    }
    Digest d;
    for (unsigned r = 0; r < ranks; ++r) {
        // 2 sends + 2 recvs per rank must all have completed.
        EXPECT_EQ(completions[r].size(), 4u)
            << "rank " << r << " with " << shards << " shards";
        d.mix(r);
        for (sim::Time t : completions[r])
            d.mix(t);
        d.mix(npfs[r]);
        d.mix(pages[r]);
    }
    return d.h;
}

} // namespace

TEST(ShardDifferential, PartitionCountDoesNotChangeObservables)
{
    const unsigned ranks = 4;
    std::uint64_t one = runPartitioned(ranks, 1);
    std::uint64_t two = runPartitioned(ranks, 2);
    std::uint64_t four = runPartitioned(ranks, 4);
    EXPECT_EQ(one, two) << "2-shard run diverged from the 1-shard oracle";
    EXPECT_EQ(one, four)
        << "4-shard run diverged from the 1-shard oracle";
}

TEST(ShardDifferential, ReplayIsBitIdentical)
{
    std::uint64_t a = runPartitioned(4, 2);
    std::uint64_t b = runPartitioned(4, 2);
    EXPECT_EQ(a, b) << "same partition, same seed, different digest";
}

TEST(ShardDifferential, LookaheadDoesNotChangeObservables)
{
    // Lookahead only sets how far shards run between syncs; any legal
    // value must produce the same simulation. A divergence here means
    // the horizon math executed an event it should not have.
    std::uint64_t coarse = runPartitioned(4, 2, 500);
    std::uint64_t fine = runPartitioned(4, 2, 100);
    EXPECT_EQ(coarse, fine)
        << "lookahead changed the simulation's observables";
}

TEST(ShardDifferential, BothWorkersOnOneCpuStillMatchOneShard)
{
    // More shards than CPUs: each worker must give the CPU up (park)
    // for the other to publish its clock.
    std::uint64_t pinned;
    {
        PinToOneCpu pin;
        pinned = runPartitioned(4, 2, 500, sim::kMillisecond);
    }
    EXPECT_EQ(pinned, runPartitioned(4, 1, 500, sim::kMillisecond))
        << "2 shards on one CPU diverged from the 1-shard oracle";
}

// ---------------------------------------------------------------
// Per-shard sync accounting
// ---------------------------------------------------------------

namespace {

/**
 * The half-lookahead rule: every window but a run's last advances the
 * shard's clock by at least lookahead / 2, so a run() over `span`
 * takes at most 2 * span / lookahead + 2 windows on every shard, on
 * any machine and under any thread timing.
 */
void
expectWindowBound(const sim::ShardedEngine &engine,
                  const std::vector<std::uint64_t> &before, sim::Time span)
{
    for (unsigned s = 0; s < engine.shards(); ++s) {
        std::uint64_t w = engine.stats(s).windows - before[s];
        EXPECT_GE(w, 1u) << "shard " << s;
        EXPECT_LE(w, 2 * span / engine.lookahead() + 2)
            << "shard " << s << " over a span of " << span << " ns";
    }
}

std::vector<std::uint64_t>
windowsNow(const sim::ShardedEngine &engine)
{
    std::vector<std::uint64_t> w;
    for (unsigned s = 0; s < engine.shards(); ++s)
        w.push_back(engine.stats(s).windows);
    return w;
}

} // namespace

TEST(ShardStats, WindowsPerRunStayWithinTheHalfLookaheadBound)
{
    // Both shards tick every 37 ns and post to each other every tenth
    // tick, so every window has local work and ring traffic.
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 1000;
    sim::ShardedEngine engine(cfg);
    std::uint64_t ticks[2] = {0, 0}, delivered[2] = {0, 0};
    std::function<void()> tick[2];
    for (unsigned s = 0; s < 2; ++s) {
        engine.invokeOn(s, [&, s] {
            engine.bind(s, 1, [&delivered, s](const sim::BoundaryMsg &) {
                ++delivered[s];
            });
            tick[s] = [&, s] {
                sim::EventQueue &eq = engine.queue(s);
                if (ticks[s]++ % 10 == 0) {
                    sim::BoundaryMsg m{};
                    m.when = eq.now() + cfg.lookahead;
                    m.orderKey = ticks[s];
                    m.kind = 1;
                    m.srcShard = std::uint16_t(s);
                    m.dstShard = std::uint16_t(1 - s);
                    engine.post(m);
                }
                eq.scheduleAfter(37, [&tick, s] { tick[s](); });
            };
            engine.queue(s).schedule(0, [&tick, s] { tick[s](); });
        });
    }
    sim::Time until = 0;
    for (sim::Time span : {sim::Time(50000), sim::Time(1), sim::Time(499),
                           sim::Time(173000), sim::Time(1000000)}) {
        std::vector<std::uint64_t> before = windowsNow(engine);
        until += span;
        engine.run(until);
        expectWindowBound(engine, before, span);
    }
    for (unsigned s = 0; s < 2; ++s) {
        // Posts leave at 370 ns multiples and land a lookahead later.
        EXPECT_EQ(delivered[s], (until - cfg.lookahead) / 370 + 1);
        EXPECT_EQ(engine.queue(s).now(), until);
        sim::ShardedEngine::Stats st = engine.stats(s);
        EXPECT_GE(st.ringHighWater, 1u) << "shard " << s;
        EXPECT_LE(st.ringHighWater, cfg.ringCapacity) << "shard " << s;
    }
}

TEST(ShardStats, DenseShardBesideIdleShard)
{
    // Shard 0 runs an event every 5 ns; shard 1 has nothing at all.
    // The idle shard must still keep pace window by window (its clock
    // is shard 0's horizon), and neither may exceed the window bound.
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 2500;
    sim::ShardedEngine engine(cfg);
    constexpr sim::Time kSpan = 500000;
    std::uint64_t fired = 0;
    std::function<void()> tick;
    engine.invokeOn(0, [&] {
        tick = [&] {
            ++fired;
            if (engine.queue(0).now() + 5 <= kSpan)
                engine.queue(0).scheduleAfter(5, [&tick] { tick(); });
        };
        engine.queue(0).schedule(0, [&tick] { tick(); });
    });
    std::vector<std::uint64_t> before = windowsNow(engine);
    engine.run(kSpan);
    expectWindowBound(engine, before, kSpan);
    EXPECT_EQ(fired, kSpan / 5 + 1);
    EXPECT_EQ(engine.queue(1).stats().executed, 0u);
    EXPECT_EQ(engine.queue(1).now(), kSpan);
    EXPECT_EQ(engine.stats(0).ringHighWater, 0u);
    EXPECT_EQ(engine.stats(1).ringHighWater, 0u);
}

// ---------------------------------------------------------------
// Debug-build ownership assertions
// ---------------------------------------------------------------

#ifndef NDEBUG

TEST(OwnerAssertDeath, PoolUseFromForeignThreadAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::Pool<int> pool;
            std::thread([&pool] { (void)pool.create(7); }).join();
        },
        "non-owner");
}

TEST(OwnerAssertDeath, RegistryMutationFromForeignThreadAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            obs::Registry reg;
            static std::uint64_t v = 0;
            std::thread([&reg] { reg.addCounter("x", &v); }).join();
        },
        "non-owner");
}

TEST(OwnerAssert, RebindMovesOwnership)
{
    sim::Pool<int> pool;
    std::thread([&pool] {
        pool.rebindOwner();
        auto h = pool.create(1);
        EXPECT_EQ(*pool.get(h), 1);
        pool.release(h);
        pool.rebindOwner(); // hand back is the worker's job too --
    }).join();
    // -- but this rebind ran on the worker; take it back here.
    pool.rebindOwner();
    auto h = pool.create(2);
    EXPECT_EQ(*pool.get(h), 2);
    pool.release(h);
}

#endif // !NDEBUG
