/**
 * @file
 * Randomized differential test: the ladder-queue sim::EventQueue
 * versus the retained binary-heap engine (tests/heap_event_queue.hh).
 *
 * The determinism contract says the rewrite is *unobservable* through
 * the public API: for any interleaving of schedule / scheduleAfter /
 * cancel / runUntil / runUntilCondition, both engines must execute
 * the same events in the same global order at the same timestamps,
 * and agree on now() and the final Stats. This test throws N seeded
 * random op streams at both engines side by side and demands exactly
 * that.
 *
 * Handles differ between engines (the heap numbers events densely,
 * the ladder packs slab index + generation), so cancellation targets
 * are chosen by birth order and mapped through parallel id vectors.
 *
 * The window-edge streams aim at the ladder's imminent window, which
 * spans several 64 ns buckets: times straddle bucket edges, level-1
 * slot starts and the window's current end (read from the ladder),
 * deadlines fall inside it, and chained callbacks schedule into it.
 * A chained event's children are planned when the ladder runs it and
 * replayed verbatim when the oracle runs the same birth.
 *
 * The re-armed-timer stream is a NIC-like packet chain whose callback
 * cancels and re-arms the queue's only other event (an RTO) before it
 * schedules its successor; besides matching the oracle, the ladder
 * must keep its imminent-window heap small throughout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "heap_event_queue.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

using namespace npf;

namespace {

/** One executed-event record; both engines must produce equal logs. */
struct Exec
{
    sim::Time when;
    std::uint64_t birth; ///< birth-order index of the event

    bool operator==(const Exec &o) const
    {
        return when == o.when && birth == o.birth;
    }
};

/** A child event planned by a chained callback on the ladder side. */
struct Child
{
    sim::Time when;
    std::uint64_t birth;
    bool chain;
};

/**
 * Drives both engines through one seeded op stream and checks them
 * against each other after every run-ish op and at the end. With
 * @p windowEdges the stream also targets the imminent window (see the
 * file comment); @p origin first moves both clocks there (an anchor
 * near kTimeMax exercises saturation).
 */
class DifferentialHarness
{
  public:
    explicit DifferentialHarness(std::uint32_t seed, bool windowEdges = false,
                                 sim::Time origin = 0)
        : rng_(seed), windowEdges_(windowEdges)
    {
        ladder_.runUntil(origin);
        oracle_.runUntil(origin);
    }

    void
    run(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            switch (pick({30, 20, 20, 12, 10, 8, windowEdges_ ? 20 : 0})) {
              case 0:
                doSchedule();
                break;
              case 1:
                doScheduleAfter();
                break;
              case 2:
                doCancel();
                break;
              case 3:
                doRunUntil();
                break;
              case 4:
                doRunUntilCondition();
                break;
              case 5:
                doStepBurst();
                break;
              case 6: {
                sim::Time when = windowTime();
                std::uint64_t birth = births_++;
                scheduleNew(when, birth, true);
                scheduleOld(when, birth);
                break;
              }
            }
            checkClocks();
        }
        // Drain both completely; afterwards every stat must agree,
        // including the lazily-reaped cancellation count.
        ladder_.run();
        oracle_.run();
        checkClocks();
        checkLogs();
        checkFinalStats();
    }

  private:
    /** Weighted choice; weights need not sum to anything special. */
    int
    pick(std::initializer_list<int> weights)
    {
        int total = 0;
        for (int w : weights)
            total += w;
        int r = std::uniform_int_distribution<int>(0, total - 1)(rng_);
        int idx = 0;
        for (int w : weights) {
            if (r < w)
                return idx;
            r -= w;
            ++idx;
        }
        return idx - 1;
    }

    sim::Time
    randomDelay()
    {
        // Mix of horizons so events land in the imminent window,
        // every wheel level, and the overflow ladder.
        switch (pick({30, 30, 20, 10, 6, 4})) {
          case 0: // same 64 ns window / immediate
            return std::uniform_int_distribution<sim::Time>(0, 63)(rng_);
          case 1: // near future: level 0-1
            return std::uniform_int_distribution<sim::Time>(
                64, 1 << 20)(rng_);
          case 2: // mid: level 2-3
            return std::uniform_int_distribution<sim::Time>(
                1 << 20, sim::Time(1) << 36)(rng_);
          case 3: // far: level 4-5
            return std::uniform_int_distribution<sim::Time>(
                sim::Time(1) << 36, sim::Time(1) << 53)(rng_);
          case 4: // beyond the wheel span: overflow ladder
            return std::uniform_int_distribution<sim::Time>(
                sim::Time(1) << 54, sim::Time(1) << 60)(rng_);
          default: // sentinel-ish: exercises saturation
            return sim::kTimeMax -
                   std::uniform_int_distribution<sim::Time>(0, 100)(rng_);
        }
    }

    sim::Time
    uniform(sim::Time lo, sim::Time hi)
    {
        return std::uniform_int_distribution<sim::Time>(lo, hi)(rng_);
    }

    /** Start of the @p k-th slot after now's at wheel shift @p shift,
     *  saturating at kTimeMax. */
    sim::Time
    slotAhead(unsigned shift, sim::Time k)
    {
        sim::Time slot = (ladder_.now() >> shift) + k;
        return slot > (sim::kTimeMax >> shift) ? sim::kTimeMax
                                                : slot << shift;
    }

    /** @p t moved by -2..+2 ns, clamped to [now, kTimeMax]. */
    sim::Time
    jitter(sim::Time t)
    {
        sim::Time d = uniform(0, 4);
        t = d < 2 ? t - std::min(t, 2 - d) : sim::saturatingAdd(t, d - 2);
        return std::max(t, ladder_.now());
    }

    /**
     * An absolute time aimed at the imminent window's structure:
     * inside it, at its end, at level-0 bucket edges, or at level-1
     * slot starts (multiples of 16384 ns) within the level-0 ring.
     */
    sim::Time
    windowTime()
    {
        sim::Time now = ladder_.now();
        sim::Time end = std::max(ladder_.curWindowEnd_, now);
        switch (pick({3, 3, 3, 2})) {
          case 0:
            return now + uniform(0, std::min<sim::Time>(end - now, 1 << 15));
          case 1:
            return jitter(uniform(0, 3) == 0 ? sim::saturatingAdd(end, 64)
                                             : end);
          case 2:
            return jitter(slotAhead(6, uniform(1, 300)));
          default:
            return jitter(slotAhead(14, uniform(1, 2)));
        }
    }

    /** Grow the per-birth vectors to hold @p birth. */
    void
    grow(std::uint64_t birth)
    {
        if (birth >= idsNew_.size()) {
            idsNew_.resize(birth + 1);
            idsOld_.resize(birth + 1);
            plans_.resize(birth + 1);
        }
    }

    /**
     * Schedule @p birth on the ladder. A chained event plans 0-2
     * children when it runs (into the open window, at its end, or at
     * bucket edges) and schedules them on the ladder at once.
     */
    void
    scheduleNew(sim::Time when, std::uint64_t birth, bool chain)
    {
        grow(birth);
        idsNew_[birth] = ladder_.schedule(
            when,
            [this, birth, chain] {
                logNew_.push_back({ladder_.now(), birth});
                if (!chain)
                    return;
                int n = pick({3, 5, 2});
                for (int i = 0; i < n; ++i) {
                    Child c{windowTime(), births_++, pick({1, 1}) == 0};
                    plans_[birth].push_back(c);
                    scheduleNew(c.when, c.birth, c.chain);
                }
            },
            "diff.chain");
    }

    /** Schedule the oracle's copy of @p birth, replaying the children
     *  the ladder planned for it. */
    void
    scheduleOld(sim::Time when, std::uint64_t birth)
    {
        idsOld_[birth] = oracle_.schedule(
            when,
            [this, birth] {
                logOld_.push_back({oracle_.now(), birth});
                std::vector<Child> children = plans_[birth];
                for (const Child &c : children)
                    scheduleOld(c.when, c.birth);
            },
            "diff.chain");
    }

    void
    doSchedule()
    {
        std::uint64_t birth = births_++;
        sim::Time when =
            windowEdges_ && pick({1, 1}) == 0
                ? windowTime()
                : sim::saturatingAdd(ladder_.now(), randomDelay());
        grow(birth);
        idsNew_[birth] = ladder_.schedule(
            when, [this, birth] { logNew_.push_back({ladder_.now(), birth}); },
            "diff.sched");
        idsOld_[birth] = oracle_.schedule(
            when, [this, birth] { logOld_.push_back({oracle_.now(), birth}); },
            "diff.sched");
    }

    void
    doScheduleAfter()
    {
        std::uint64_t birth = births_++;
        sim::Time delay = randomDelay();
        grow(birth);
        idsNew_[birth] = ladder_.scheduleAfter(
            delay,
            [this, birth] { logNew_.push_back({ladder_.now(), birth}); },
            "diff.after");
        idsOld_[birth] = oracle_.scheduleAfter(
            delay,
            [this, birth] { logOld_.push_back({oracle_.now(), birth}); },
            "diff.after");
    }

    /** A run deadline: random, or (window-edge streams) aimed inside
     *  or at the end of the imminent window. */
    sim::Time
    deadline()
    {
        if (windowEdges_ && pick({1, 1}) == 0)
            return windowTime();
        return sim::saturatingAdd(ladder_.now(), randomDelay());
    }

    void
    doCancel()
    {
        if (births_ == 0)
            return;
        // Bias toward recent events so cancels often hit still-live
        // entries (the interesting case) but sometimes hit executed
        // or already-cancelled ones (the no-op case).
        std::uint64_t target =
            births_ - 1 -
            std::min<std::uint64_t>(
                births_ - 1,
                std::uniform_int_distribution<std::uint64_t>(0, 40)(rng_));
        ladder_.cancel(idsNew_[target]);
        oracle_.cancel(idsOld_[target]);
    }

    void
    doRunUntil()
    {
        sim::Time until = deadline();
        ladder_.runUntil(until);
        oracle_.runUntil(until);
        checkLogs();
    }

    void
    doRunUntilCondition()
    {
        sim::Time until = deadline();
        // Fire until a fixed number of further events have executed;
        // expressed over each engine's own log so both predicates are
        // observationally identical.
        std::size_t goalNew = logNew_.size() + 3;
        std::size_t goalOld = logOld_.size() + 3;
        bool okNew = ladder_.runUntilCondition(
            [&] { return logNew_.size() >= goalNew; }, until);
        bool okOld = oracle_.runUntilCondition(
            [&] { return logOld_.size() >= goalOld; }, until);
        EXPECT_EQ(okNew, okOld);
        checkLogs();
    }

    void
    doStepBurst()
    {
        int n = std::uniform_int_distribution<int>(1, 5)(rng_);
        for (int i = 0; i < n; ++i) {
            bool a = ladder_.step();
            bool b = oracle_.step();
            ASSERT_EQ(a, b) << "one engine ran dry before the other";
            if (!a)
                break;
        }
        checkLogs();
    }

    void
    checkClocks()
    {
        ASSERT_EQ(ladder_.now(), oracle_.now());
        // live() must agree at all times: both count exactly the
        // events that can still fire. (pending()/empty() intentionally
        // differ mid-run: the heap reaps cancelled entries lazily, the
        // ladder reclaims them at cancel time, so compare the ladder's
        // emptiness against the oracle's *live* emptiness.)
        ASSERT_EQ(ladder_.live(), oracle_.live());
        ASSERT_EQ(ladder_.empty(), oracle_.live() == 0);
    }

    void
    checkLogs()
    {
        std::size_t from = check_;
        check_ = std::min(logNew_.size(), logOld_.size());
        for (std::size_t i = from; i < check_; ++i) {
            ASSERT_EQ(logNew_[i].when, logOld_[i].when) << "entry " << i;
            ASSERT_EQ(logNew_[i].birth, logOld_[i].birth) << "entry " << i;
        }
        ASSERT_EQ(logNew_.size(), logOld_.size());
    }

    void
    checkFinalStats()
    {
        const auto &sn = ladder_.stats();
        const auto &so = oracle_.stats();
        EXPECT_EQ(sn.scheduled, so.scheduled);
        EXPECT_EQ(sn.executed, so.executed);
        EXPECT_EQ(sn.cancelled, so.cancelled);
        // After a full drain the heap has reaped everything it ever
        // cancelled, so the eager and lazy counts converge.
        EXPECT_EQ(sn.cancelledReaped, so.cancelledReaped);
        EXPECT_EQ(sn.cancelled, sn.cancelledReaped);
        EXPECT_EQ(ladder_.pending(), 0u);
        EXPECT_EQ(oracle_.pending(), 0u);
    }

    std::mt19937 rng_;
    bool windowEdges_;
    sim::EventQueue ladder_;
    simtest::HeapEventQueue oracle_;
    std::vector<sim::EventId> idsNew_;
    std::vector<simtest::HeapEventQueue::EventId> idsOld_;
    std::vector<std::vector<Child>> plans_; ///< [birth] chained children
    std::vector<Exec> logNew_, logOld_;
    std::size_t check_ = 0;
    std::uint64_t births_ = 0;
};

} // namespace

TEST(EngineOracle, RandomInterleavingsMatchHeapEngine)
{
    for (std::uint32_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        DifferentialHarness h(seed);
        h.run(600);
    }
}

TEST(EngineOracle, CancelStormMatchesHeapEngine)
{
    // Degenerate mix: almost everything scheduled gets cancelled,
    // stressing slot reuse + generation stamps against the oracle.
    for (std::uint32_t seed = 100; seed <= 106; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937 rng(seed);
        sim::EventQueue ladder;
        simtest::HeapEventQueue oracle;
        std::vector<sim::Time> firedNew, firedOld;
        std::vector<sim::EventId> idsNew;
        std::vector<simtest::HeapEventQueue::EventId> idsOld;
        for (int round = 0; round < 200; ++round) {
            for (int i = 0; i < 20; ++i) {
                sim::Time d = std::uniform_int_distribution<sim::Time>(
                    1, 1 << 22)(rng);
                idsNew.push_back(ladder.scheduleAfter(d, [&] {
                    firedNew.push_back(ladder.now());
                }));
                idsOld.push_back(oracle.scheduleAfter(d, [&] {
                    firedOld.push_back(oracle.now());
                }));
            }
            // Cancel 90% of this round's batch.
            for (std::size_t i = idsNew.size() - 20; i < idsNew.size();
                 ++i) {
                if (std::uniform_int_distribution<int>(0, 9)(rng) == 0)
                    continue;
                ladder.cancel(idsNew[i]);
                oracle.cancel(idsOld[i]);
            }
            sim::Time until = sim::saturatingAdd(
                ladder.now(),
                std::uniform_int_distribution<sim::Time>(0, 1 << 21)(rng));
            ladder.runUntil(until);
            oracle.runUntil(until);
            ASSERT_EQ(ladder.now(), oracle.now());
            ASSERT_EQ(firedNew, firedOld) << "round " << round;
        }
        ladder.run();
        oracle.run();
        EXPECT_EQ(firedNew, firedOld);
        EXPECT_EQ(ladder.stats().executed, oracle.stats().executed);
        EXPECT_EQ(ladder.stats().cancelledReaped,
                  oracle.stats().cancelledReaped);
    }
}

TEST(EngineOracle, WindowEdgesMatchHeapEngine)
{
    for (std::uint32_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        DifferentialHarness h(seed, true);
        h.run(600);
    }
}

TEST(EngineOracle, WindowEdgesNearEndOfTimeMatchHeapEngine)
{
    // Anchors in the last level-0 ring and the last few buckets
    // before kTimeMax: window ends and slot starts saturate there.
    const sim::Time origins[] = {sim::kTimeMax - 40000, sim::kTimeMax - 300};
    for (sim::Time origin : origins)
        for (std::uint32_t seed = 200; seed <= 207; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " origin " << origin);
            DifferentialHarness h(seed, true, origin);
            h.run(400);
        }
}

namespace {

/**
 * One packet chain on queue @p Q: each packet cancels the RTO, re-arms
 * it 1 ms out and only then schedules the next packet 100-400 ns
 * later, so the RTO is the queue's only live event at re-arm time.
 * Logs every packet and timer firing; @p onPacket sees the queue.
 */
template <typename Q, typename Id>
struct RearmStream
{
    Q eq;
    Id rto{};
    std::mt19937 rng;
    std::uint64_t left;
    std::vector<sim::Time> log;
    std::function<void(const Q &)> onPacket;

    RearmStream(std::uint32_t seed, std::uint64_t packets)
        : rng(seed), left(packets)
    {
    }

    void
    packet()
    {
        log.push_back(eq.now());
        if (onPacket)
            onPacket(eq);
        eq.cancel(rto);
        rto = eq.scheduleAfter(sim::kMillisecond,
                               [this] { log.push_back(~eq.now()); });
        if (--left != 0)
            eq.scheduleAfter(
                std::uniform_int_distribution<sim::Time>(100, 400)(rng),
                [this] { packet(); });
    }
};

} // namespace

TEST(EngineOracle, RearmedTimerBeforeSuccessorMatchesHeapEngineInSmallHeap)
{
    for (std::uint32_t seed = 300; seed <= 303; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        constexpr std::uint64_t kPackets = 50000;
        RearmStream<sim::EventQueue, sim::EventId> ladder(seed, kPackets);
        RearmStream<simtest::HeapEventQueue,
                    simtest::HeapEventQueue::EventId>
            oracle(seed, kPackets);
        std::size_t peakHeap = 0;
        ladder.onPacket = [&peakHeap](const sim::EventQueue &eq) {
            peakHeap = std::max(peakHeap, eq.curHeap_.size());
        };
        ladder.eq.schedule(0, [&ladder] { ladder.packet(); });
        oracle.eq.schedule(0, [&oracle] { oracle.packet(); });
        ladder.eq.run();
        oracle.eq.run();
        ASSERT_EQ(ladder.log.size(), kPackets + 1); // the last RTO fires
        EXPECT_EQ(ladder.log, oracle.log);
        EXPECT_EQ(ladder.eq.stats().cancelled, oracle.eq.stats().cancelled);
        // The window holds a packet or two plus its successors; with
        // the window anchored at the re-armed RTO instead, every
        // packet and every cancelled RTO piled up in the heap.
        EXPECT_LE(peakHeap, 8u);
    }
}
