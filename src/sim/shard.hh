/**
 * @file
 * Sharded conservative parallel simulation core.
 *
 * The world is partitioned into N shards; each shard owns a private
 * sim::EventQueue (and private pools — sim::Pool asserts ownership in
 * debug builds) and runs on its own worker thread. The ONLY coupling
 * between shards is the explicit, timestamped BoundaryMsg: a
 * trivially-copyable record carried over single-producer/single-
 * consumer rings, one ring per directed shard pair, alloc-free in
 * steady state.
 *
 * Synchronization is conservative null-message/lower-bound-timestamp
 * (the SimBricks recipe): every boundary message must be stamped at
 * least `lookahead` past the sender's current time — physically,
 * lookahead is the minimum link latency between any two hosts in
 * different shards, so a packet leaving shard A at time t cannot
 * affect shard B before t + lookahead. Each shard publishes a clock
 * that is a *floor on its future executions*: it will never again run
 * an event at a time below its published clock (after running through
 * time T it publishes T + 1). Each worker repeatedly
 *
 *   1. loads every neighbor's published clock (acquire) and, until
 *      the safe horizon `min_j(clock_j + lookahead)` is at least half
 *      a lookahead past its own clock (or past the deadline), waits:
 *      it spins polling those clocks, then parks until a neighbor
 *      publishes (see waitUntil()),
 *   2. drains its inbound rings into its event queue,
 *   3. executes events strictly below the horizon, at most one
 *      lookahead past its own clock,
 *   4. publishes its own new floor (release) and wakes any parked
 *      neighbor.
 *
 * The floor semantics make step 3 safe AND live for any lookahead
 * >= 1: every message still in flight from shard j was (or will be)
 * sent while j executes at some t >= clock_j, so it is stamped
 * `when >= clock_j + lookahead` — strictly beyond the horizon — and
 * running through horizon - 1 then publishing `horizon` always makes
 * progress. (A "ran through here" clock, by contrast, livelocks at
 * lookahead == 1: no shard could ever pass min_j(clock_j).) The
 * half-lookahead rule in step 1 cannot deadlock either: the shard
 * with the lowest clock always sees a horizon at least a full
 * lookahead ahead. The load-then-drain order closes the race: a
 * sender pushes a message into the ring *before* the release-store
 * of the clock value that made it possible, so once a receiver has
 * acquire-loaded clock C from shard j, every message from j stamped
 * below C + lookahead is already visible in the ring.
 *
 * Determinism: delivered messages are injected with
 * EventQueue::scheduleBoundary(when, orderKey), whose (when, key)
 * priority is independent of *wall-clock* drain timing — two replays
 * (or a 1-shard and an N-shard run using the same record path)
 * execute every shard's events in exactly the same order. With
 * shards == 1 no threads are spawned and run() degenerates to a plain
 * runUntil(), reducing bit-identically to the single-queue engine.
 */

#ifndef NPF_SIM_SHARD_HH
#define NPF_SIM_SHARD_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace npf::sim {

/**
 * One timestamped message crossing a shard boundary. Trivially
 * copyable by construction: closures do not cross shards, records do.
 * The fixed scalar fields cover the common wire cases (node ids,
 * byte counts); anything richer travels as a POD payload via
 * store()/load().
 */
struct BoundaryMsg
{
    static constexpr std::size_t kPayloadBytes = 96;

    Time when = 0;             ///< delivery time at the destination
    std::uint64_t orderKey = 0;///< same-tick tie-break, globally unique
    std::uint32_t kind = 0;    ///< receiver dispatch key (see bind())
    std::uint16_t srcShard = 0;
    std::uint16_t dstShard = 0;
    std::uint64_t a = 0;       ///< scalar args, meaning is kind-private
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;
    std::uint32_t payloadLen = 0;
    unsigned char payload[kPayloadBytes] = {};

    /** Serialize a POD into the payload bytes. */
    template <typename T>
    void
    store(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only PODs cross shard boundaries");
        static_assert(sizeof(T) <= kPayloadBytes, "grow kPayloadBytes");
        std::memcpy(payload, &v, sizeof(T));
        payloadLen = sizeof(T);
    }

    /** Deserialize the payload back into a POD. */
    template <typename T>
    T
    load() const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kPayloadBytes);
        T v;
        std::memcpy(&v, payload, sizeof(T));
        return v;
    }
};

static_assert(std::is_trivially_copyable_v<BoundaryMsg>);

/**
 * Fixed-capacity single-producer/single-consumer ring of
 * BoundaryMsg. Lock-free, alloc-free after construction; a full ring
 * is backpressure, never loss (ShardedEngine::post() waits).
 *
 * Each side keeps a private copy of the other side's cursor and
 * reloads the shared one only when the ring looks full (producer) or
 * empty (consumer), so a steady stream touches the other side's
 * cache line once per batch instead of once per message.
 */
class SpscRing
{
  public:
    /** @param capacity rounded up to a power of two. */
    explicit SpscRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    /** Producer side. @return false when the ring is full. */
    bool
    tryPush(const BoundaryMsg &m)
    {
        std::uint64_t t = tail_.load(std::memory_order_relaxed);
        if (t - headCache_ > mask_) {
            headCache_ = head_.load(std::memory_order_acquire);
            if (t - headCache_ > mask_)
                return false; // full
        }
        slots_[t & mask_] = m;
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side. @return false when the ring is empty. */
    bool
    tryPop(BoundaryMsg &out)
    {
        std::uint64_t h = head_.load(std::memory_order_relaxed);
        if (h == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (h == tailCache_)
                return false; // empty
            highWater_ = std::max<std::size_t>(highWater_, tailCache_ - h);
        }
        out = slots_[h & mask_];
        head_.store(h + 1, std::memory_order_release);
        return true;
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Largest backlog the consumer has found on reloading the tail
     *  (consumer side; capacity() means a producer hit a full ring). */
    std::size_t highWater() const { return highWater_; }

  private:
    std::size_t mask_ = 0;
    std::vector<BoundaryMsg> slots_;
    /// Shared cursors, one cache line each: the consumer writes head_
    /// and the producer tail_.
    alignas(64) std::atomic<std::uint64_t> head_{0}; ///< next pop
    alignas(64) std::atomic<std::uint64_t> tail_{0}; ///< next push
    /// Producer-private: head_ as last loaded.
    alignas(64) std::uint64_t headCache_ = 0;
    /// Consumer-private: tail_ as last loaded, and the backlog gauge.
    alignas(64) std::uint64_t tailCache_ = 0;
    std::size_t highWater_ = 0;
};

/**
 * N event queues, N worker threads, conservative sync. See the file
 * comment for the protocol. Construction, world setup (invokeOn),
 * run(), and stats reads all happen on the controlling thread; only
 * the bodies passed to invokeOn and the simulation callbacks execute
 * on shard workers.
 */
class ShardedEngine
{
  public:
    /** Called on the destination shard's thread to deliver one
     *  boundary message at exactly msg.when. */
    using Handler = std::function<void(const BoundaryMsg &)>;

    struct Config
    {
        unsigned shards = 1;
        /**
         * Minimum cross-shard latency: every post()ed message must
         * satisfy `when >= sender now + lookahead`. Larger lookahead
         * means longer lock-free stretches per shard; it must never
         * exceed the true minimum cross-shard link latency.
         */
        Time lookahead = 1;
        /** Per-directed-pair ring capacity (messages). */
        std::size_t ringCapacity = 4096;
    };

    explicit ShardedEngine(Config cfg);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    unsigned shards() const { return unsigned(shards_.size()); }
    Time lookahead() const { return cfg_.lookahead; }

    /** Shard @p s's private queue. Touch it only from shard s (or
     *  between runs, from the controlling thread). */
    EventQueue &queue(unsigned s) { return *shards_[s]->eq; }

    /**
     * Execute @p fn on shard @p s's worker thread and wait for it.
     * World construction and teardown go through here so thread_local
     * singletons (obs registry, pooled slabs) and pool owners land on
     * the owning thread. Runs inline when the engine is single-shard.
     */
    void invokeOn(unsigned s, const std::function<void()> &fn);

    /**
     * Register the handler for messages of @p kind arriving at shard
     * @p s. Call during setup (typically from within invokeOn), never
     * while run() is in flight.
     */
    void bind(unsigned s, std::uint32_t kind, Handler h);

    /**
     * Send a boundary message. Must be called on the srcShard's
     * thread; `m.when >= queue(srcShard).now() + lookahead` is
     * enforced (abort, in all builds) for cross-shard sends — a
     * violation would silently break determinism, so it is never
     * tolerated. Loopback (src == dst) schedules directly with no
     * latency floor.
     */
    void post(const BoundaryMsg &m);

    /**
     * Run every shard up to and including @p until (simulated time),
     * in parallel, then return with all shards quiescent at `until`.
     * Callable repeatedly with nondecreasing deadlines.
     */
    void run(Time until);

    /** Total boundary messages posted so far (all shards). */
    std::uint64_t posted() const;

    /** Total events executed so far, summed over all shard queues. */
    std::uint64_t executed() const;

    /** One shard's synchronization accounting, cumulative over runs. */
    struct Stats
    {
        /// runUntil() windows executed. The half-lookahead rule bounds
        /// a run() over `span` to 2 * span / lookahead + 2 of them.
        std::uint64_t windows = 0;
        /// Times the worker parked (slept in the kernel) while waiting.
        std::uint64_t parks = 0;
        /// Host time spent waiting — for the horizon, for the other
        /// shards to finish, or for room in a full ring — spinning or
        /// parked.
        std::uint64_t blockedNs = 0;
        /// Largest backlog found in one of this shard's inbound rings.
        std::size_t ringHighWater = 0;
    };

    /** Shard @p s's accounting. Read between runs, from the
     *  controlling thread. */
    Stats stats(unsigned s) const;

  private:
    struct Shard
    {
        unsigned id = 0;
        /// Parks delivered messages while they wait in the queue
        /// (BoundaryMsg outgrows the Delegate SBO). Declared before
        /// eq so queue teardown can still release into it.
        Pool<BoundaryMsg> msgPool{"sim::Shard.msg"};
        /// unique_ptr so the engine dtor can destroy it *on the
        /// worker thread*: undelivered event closures hold PoolRefs
        /// into that thread's thread-local pools (fabric record
        /// parking, oversized delegate captures), and release asserts
        /// thread ownership in debug builds.
        std::unique_ptr<EventQueue> eq = std::make_unique<EventQueue>();
        std::vector<std::unique_ptr<SpscRing>> in; ///< [srcShard]
        std::unordered_map<std::uint32_t, Handler> handlers;

        /// Written by the worker only (read between runs).
        alignas(64) std::uint64_t posted = 0;
        Stats stats;
        /// `bell` as read by the last drainInto(): a different value
        /// means a producer rang since and may be stuck.
        std::uint32_t drainedBell = 0;

        /// Published floor on future executions: this shard will
        /// never again run an event at a time below `clock`. Its own
        /// cache line: neighbors poll it while they wait.
        alignas(64) std::atomic<Time> clock{0};

        /// Wake-up word for waitUntil(): bumped by a neighbor that
        /// published a clock, finished, or freed ring space while
        /// this shard was parked, and by a producer facing a full
        /// ring into this shard (which then drains).
        alignas(64) std::atomic<std::uint32_t> bell{0};
        std::atomic<bool> parked{false};

        // Job mailbox (controlling thread <-> worker).
        alignas(64) std::mutex mu;
        std::condition_variable cv;
        int job = 0; ///< 0 idle, 1 invoke, 2 run, 3 exit
        const std::function<void()> *fn = nullptr;
        Time until = 0;
        bool done = false;
        std::thread th;
    };

    void workerLoop(Shard &s);
    void runShard(Shard &s, Time until);
    /** Lowest neighbor clock plus lookahead: s may run below it. */
    Time horizon(const Shard &s) const;
    /**
     * Block shard @p s's worker until @p ready() holds: spin polling
     * it (not when there are fewer CPUs than shards), then park on
     * s.bell. Drains s's inbound rings whenever the bell has moved
     * since the last drain, so a producer stuck on a full ring into s
     * always gets room. ready() is not called again once it returned
     * true, so it may act (post() pushes from it).
     */
    template <typename Ready>
    void waitUntil(Shard &s, Ready ready);
    /** Wake every parked shard but @p s. Call after publishing state
     *  another shard may wait on. */
    void wakeParked(const Shard &s);
    /** Pop everything available and inject it into s.eq. */
    void drainInto(Shard &s);
    /** scheduleBoundary the dispatch of @p m on shard @p s. */
    void deliver(Shard &s, const BoundaryMsg &m);
    void startJob(Shard &s, int job, const std::function<void()> *fn,
                  Time until);
    void waitJob(Shard &s);

    Config cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    bool threaded_ = false;
    /// Polls before a waiting worker parks (0: park at once).
    unsigned spinPolls_ = 0;
    Time lastRunUntil_ = 0;
    /// Shards that reached `until` in the current run(). Finished
    /// shards keep draining their inbound rings until every shard is
    /// done, so a neighbor waiting on a full ring into a finished
    /// shard cannot hang.
    std::atomic<std::size_t> runDone_{0};
};

} // namespace npf::sim

#endif // NPF_SIM_SHARD_HH
