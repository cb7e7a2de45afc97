#include "sim/shard.hh"

#include <sched.h>

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/thread_exit.hh"

namespace npf::sim {

namespace {

/// Polls a waiting worker makes before it parks: about 200 us of
/// `pause` on current x86. Waits with a core per worker last about one
/// neighbor window and end well inside it. The budget must also
/// outlast the wake-up of a parked neighbor (tens of us, more when its
/// core went idle): a budget shorter than that turns one park into a
/// chain of them, each worker parking while the other wakes up.
constexpr unsigned kSpinPolls = 8192;

/** CPUs this process may run on: its affinity mask, which the shard
 *  workers inherit from the thread that constructs the engine. */
unsigned
usableCpus()
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(CPU_COUNT(&set));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Spin-wait hint (x86 `pause`, Arm `yield`); not a syscall. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

std::uint64_t
nowNs()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
}

} // namespace

ShardedEngine::ShardedEngine(Config cfg) : cfg_(cfg)
{
    if (cfg_.shards == 0)
        cfg_.shards = 1;
    if (cfg_.lookahead == 0)
        cfg_.lookahead = 1; // conservative sync needs strictly
                            // positive lookahead to make progress;
                            // 1 suffices because published clocks are
                            // floors on *future* work (see runShard)
    threaded_ = cfg_.shards > 1;
    // With fewer CPUs than workers, a spinning worker keeps the very
    // neighbor it waits for off the CPU: park at once instead.
    spinPolls_ = usableCpus() < cfg_.shards ? 0 : kSpinPolls;
    shards_.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto sh = std::make_unique<Shard>();
        sh->id = s;
        sh->in.resize(cfg_.shards);
        for (unsigned src = 0; src < cfg_.shards; ++src)
            if (src != s)
                sh->in[src] =
                    std::make_unique<SpscRing>(cfg_.ringCapacity);
        shards_.push_back(std::move(sh));
    }
    if (threaded_) {
        for (auto &sh : shards_)
            sh->th = std::thread([this, p = sh.get()] { workerLoop(*p); });
        // Hand each shard's message pool to its worker: debug builds
        // assert pool ownership, and deliveries acquire from it on
        // the worker thread.
        for (auto &sh : shards_) {
            Pool<BoundaryMsg> *pool = &sh->msgPool;
            invokeOn(sh->id, [pool] { pool->rebindOwner(); });
        }
    }
}

ShardedEngine::~ShardedEngine()
{
    if (threaded_) {
        for (auto &sh : shards_) {
            // Destroy the queue on its worker: undelivered event
            // closures hold PoolRefs into that thread's thread-local
            // pools (fabric record parking, oversized delegate
            // captures), and release asserts thread ownership in
            // debug builds.
            invokeOn(sh->id, [&sh] { sh->eq.reset(); });
            startJob(*sh, 3, nullptr, 0);
            waitJob(*sh);
            sh->th.join();
        }
    }
}

void
ShardedEngine::startJob(Shard &s, int job, const std::function<void()> *fn,
                        Time until)
{
    std::lock_guard<std::mutex> lk(s.mu);
    s.job = job;
    s.fn = fn;
    s.until = until;
    s.done = false;
    s.cv.notify_all();
}

void
ShardedEngine::waitJob(Shard &s)
{
    std::unique_lock<std::mutex> lk(s.mu);
    s.cv.wait(lk, [&s] { return s.done; });
}

void
ShardedEngine::workerLoop(Shard &s)
{
    for (;;) {
        int job;
        const std::function<void()> *fn;
        Time until;
        {
            std::unique_lock<std::mutex> lk(s.mu);
            s.cv.wait(lk, [&s] { return s.job != 0; });
            job = s.job;
            fn = s.fn;
            until = s.until;
            s.job = 0;
        }
        if (job == 1)
            (*fn)();
        else if (job == 2)
            runShard(s, until);
        else if (job == 3)
            runThreadTeardown(); // the queue is already gone
        {
            std::lock_guard<std::mutex> lk(s.mu);
            s.done = true;
            s.cv.notify_all();
        }
        if (job == 3)
            return;
    }
}

void
ShardedEngine::invokeOn(unsigned s, const std::function<void()> &fn)
{
    Shard &sh = *shards_[s];
    if (!threaded_) {
        fn();
        return;
    }
    if (std::this_thread::get_id() == sh.th.get_id()) {
        fn(); // already on the owning worker (nested use)
        return;
    }
    startJob(sh, 1, &fn, 0);
    waitJob(sh);
}

void
ShardedEngine::bind(unsigned s, std::uint32_t kind, Handler h)
{
    Shard &sh = *shards_[s];
    auto [it, fresh] = sh.handlers.emplace(kind, std::move(h));
    if (!fresh) {
        std::fprintf(stderr,
                     "ShardedEngine: duplicate handler kind %u on "
                     "shard %u\n",
                     kind, s);
        std::abort();
    }
}

void
ShardedEngine::deliver(Shard &s, const BoundaryMsg &m)
{
    auto it = s.handlers.find(m.kind);
    if (it == s.handlers.end()) {
        std::fprintf(stderr,
                     "ShardedEngine: no handler for kind %u on shard "
                     "%u (srcShard %u, when %llu)\n",
                     m.kind, unsigned(m.dstShard), unsigned(m.srcShard),
                     static_cast<unsigned long long>(m.when));
        std::abort();
    }
    // Handler address is stable: unordered_map never moves nodes.
    const Handler *h = &it->second;
    PoolRef ref = s.msgPool.acquire(m);
    s.eq->scheduleBoundary(
        m.when, m.orderKey,
        [h, ref = std::move(ref)] { (*h)(*ref.as<BoundaryMsg>()); },
        "shard::boundary");
}

void
ShardedEngine::wakeParked(const Shard &s)
{
    // Pairs with the fence in waitUntil(): either a waiter's re-check
    // sees what s just published, or we see it parked and ring its
    // bell.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (auto &other : shards_)
        if (other.get() != &s &&
            other->parked.load(std::memory_order_relaxed)) {
            other->bell.fetch_add(1, std::memory_order_release);
            other->bell.notify_one();
        }
}

template <typename Ready>
void
ShardedEngine::waitUntil(Shard &s, Ready ready)
{
    std::uint64_t t0 = nowNs();
    unsigned polls = 0;
    bool done = ready();
    while (!done) {
        // A producer that rang since our last drain is stuck on a full
        // ring into us.
        std::uint32_t bell = s.bell.load(std::memory_order_acquire);
        if (bell != s.drainedBell) {
            drainInto(s);
        } else if (polls < spinPolls_) {
            ++polls;
            cpuRelax();
        } else {
            // Park. Whoever publishes what ready() reads calls
            // wakeParked() afterwards; the fences there and here make
            // sure that either ready() below sees the new state or the
            // publisher sees `parked` and bumps the bell, which makes
            // the wait return (at once, if the bump came first).
            s.parked.store(true, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_seq_cst);
            done = ready();
            if (!done) {
                ++s.stats.parks;
                s.bell.wait(bell, std::memory_order_acquire);
            }
            s.parked.store(false, std::memory_order_relaxed);
            polls = 0;
            continue;
        }
        done = ready();
    }
    s.stats.blockedNs += nowNs() - t0;
}

void
ShardedEngine::post(const BoundaryMsg &m)
{
    Shard &src = *shards_[m.srcShard];
    Shard &dst = *shards_[m.dstShard];
    ++src.posted;
    if (&src == &dst) {
        deliver(dst, m);
        return;
    }
    // The lookahead floor is THE safety invariant of the conservative
    // protocol; a violation in a release build would otherwise decay
    // into silent nondeterminism between shard counts (the delivery
    // would be clamped into the receiver's past), so check it in all
    // builds.
    if (m.when < saturatingAdd(src.eq->now(), cfg_.lookahead)) {
        std::fprintf(stderr,
                     "ShardedEngine: boundary message inside the "
                     "lookahead window: when %llu < now %llu + "
                     "lookahead %llu (kind %u, shard %u -> %u)\n",
                     static_cast<unsigned long long>(m.when),
                     static_cast<unsigned long long>(src.eq->now()),
                     static_cast<unsigned long long>(cfg_.lookahead),
                     m.kind, unsigned(m.srcShard), unsigned(m.dstShard));
        std::abort();
    }
    SpscRing &ring = *dst.in[m.srcShard];
    if (ring.tryPush(m))
        return;
    // Full ring = backpressure: the sender stalls (its clock stops
    // advancing) until the receiver drains. Ring the receiver's bell
    // so it drains even while it waits; waitUntil() drains our own
    // inbound rings meanwhile, so if two shards burst into each
    // other's full rings inside one horizon window, each pops exactly
    // the ring the other is stuck on and the cycle cannot deadlock.
    // (Drained messages are future events by the lookahead invariant;
    // they are scheduled, never executed, from here.)
    dst.bell.fetch_add(1, std::memory_order_release);
    dst.bell.notify_one();
    waitUntil(src, [&] { return ring.tryPush(m); });
}

void
ShardedEngine::drainInto(Shard &s)
{
    s.drainedBell = s.bell.load(std::memory_order_acquire);
    BoundaryMsg m;
    bool popped = false;
    for (auto &ring : s.in)
        if (ring)
            while (ring->tryPop(m)) {
                deliver(s, m);
                popped = true;
            }
    if (popped)
        wakeParked(s); // a producer may be parked on a full ring
}

Time
ShardedEngine::horizon(const Shard &s) const
{
    Time h = kTimeMax; // exclusive
    for (const auto &other : shards_)
        if (other.get() != &s)
            h = std::min(h, saturatingAdd(other->clock.load(
                                              std::memory_order_acquire),
                                          cfg_.lookahead));
    return h;
}

void
ShardedEngine::runShard(Shard &s, Time until)
{
    const Time lookahead = cfg_.lookahead;
    // Half-lookahead rule: a window runs only once it can cover at
    // least half a lookahead (or reach `until`), so a shard does not
    // chase every small move of its neighbors' clocks, and a run()
    // over `span` takes at most 2 * span / lookahead + 2 windows. It
    // cannot deadlock: the shard with the lowest clock c always has
    // horizon >= c + lookahead.
    const Time minStep = (lookahead + 1) / 2;
    Time clock = s.clock.load(std::memory_order_relaxed);
    for (;;) {
        // Load clocks BEFORE draining: once clock_j = C is observed,
        // every message from j sent below C is already in the ring
        // (push happens-before the clock release-store), and every
        // message still in flight has when >= C + lookahead.
        Time h = horizon(s);
        auto ready = [&] {
            return h > until || h >= saturatingAdd(clock, minStep);
        };
        if (!ready())
            waitUntil(s, [&] {
                h = horizon(s);
                return ready();
            });
        drainInto(s);
        // clock_j is a floor on j's FUTURE executions (it never again
        // runs an event below clock_j), so every in-flight message
        // from j has when >= clock_j + lookahead = horizon_j: times
        // strictly below the horizon are safe. Running through h - 1
        // and publishing h is what makes lookahead == 1 sufficient
        // for progress. A window also stops one lookahead past the
        // clock: a shard that ran up to its horizon would leave its
        // neighbor a horizon two lookaheads out, and the two would
        // settle into taking turns, each idle while the other runs.
        // Capped, shards that start a window together finish it
        // together, and run side by side.
        Time runTo =
            std::min({until, h - 1, saturatingAdd(clock, lookahead - 1)});
        s.eq->runUntil(runTo);
        ++s.stats.windows;
        Time next = saturatingAdd(runTo, 1);
        if (next != clock) {
            clock = next;
            s.clock.store(next, std::memory_order_release);
            wakeParked(s);
        }
        if (runTo == until)
            break; // h > until: every message due by until is drained
    }
    // Wait for every shard to finish. Meanwhile a neighbor may still
    // get stuck on a full ring into us in its final window; it rings
    // our bell, and waitUntil() drains.
    if (runDone_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        shards_.size()) {
        wakeParked(s);
    } else {
        waitUntil(s, [this] {
            return runDone_.load(std::memory_order_acquire) ==
                   shards_.size();
        });
    }
    // Every shard has finished, so nothing more is posted in this
    // run(): schedule all of it now, and run() returns with the same
    // queue contents however the threads interleaved.
    drainInto(s);
}

void
ShardedEngine::run(Time until)
{
    assert(until >= lastRunUntil_ && "run() deadlines must not go back");
    lastRunUntil_ = until;
    if (!threaded_) {
        Shard &s = *shards_[0];
        s.eq->runUntil(until);
        ++s.stats.windows;
        s.clock.store(saturatingAdd(until, 1),
                      std::memory_order_release);
        return;
    }
    runDone_.store(0, std::memory_order_relaxed);
    for (auto &sh : shards_)
        startJob(*sh, 2, nullptr, until);
    for (auto &sh : shards_)
        waitJob(*sh);
}

std::uint64_t
ShardedEngine::posted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->posted;
    return n;
}

std::uint64_t
ShardedEngine::executed() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->eq->stats().executed;
    return n;
}

ShardedEngine::Stats
ShardedEngine::stats(unsigned s) const
{
    const Shard &sh = *shards_[s];
    Stats st = sh.stats;
    for (const auto &ring : sh.in)
        if (ring)
            st.ringHighWater = std::max(st.ringHighWater, ring->highWater());
    return st;
}

} // namespace npf::sim
