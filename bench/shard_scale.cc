/**
 * @file
 * Scaling gate for the sharded simulation core (docs/SHARDING.md).
 *
 * The logical workload is N KV-RPC partitions — 1M+ logical clients
 * total, split evenly — plus a ring of cross-partition RC streams
 * riding the fabric record plane, so the shards genuinely couple
 * through BoundaryMsgs rather than running embarrassingly parallel.
 * The same N partitions run on 1 shard and on N = --shards shards
 * (partition p on shard p % shards, as perfbench's sharded_kv places
 * them). The bench checks that both runs executed the same events and
 * reproduce the same digest, replays the N-shard run to prove per-seed
 * bit-identical determinism, and only then reports the wall-clock
 * speedup, with each shard's sync accounting (windows, parks, blocked
 * time, ring high-water). Everything goes to BENCH_shard.json.
 *
 * The >=3x speedup gate is only meaningful with real cores under the
 * worker threads: when hardware_concurrency() < 4 the verdict is
 * recorded as "insufficient_cores" (informational) instead of
 * failing, and the JSON keeps the honest measured numbers either way.
 *
 *   shard_scale [--shards=N] [--clients=N] [--rate=R] [--endpoints=N]
 *               [--warmup=D] [--duration=D] [--seed=N] [--json=FILE]
 *               [--no-speed-gate]
 */

#include <cinttypes>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_rpc.hh"
#include "bench/common.hh"
#include "load/client_pool.hh"
#include "load/recorder.hh"
#include "net/fabric.hh"
#include "sim/shard.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

constexpr std::size_t kGiB = 1ull << 30;

struct Args
{
    unsigned shards = 4;           ///< partitions, and the parallel
                                   ///< configuration's shard count
    std::uint64_t clients = 1u << 20; ///< total logical clients
    double rate = 400e3;           ///< total offered req/s
    unsigned endpoints = 64;       ///< total transport endpoints
    sim::Time warmup = 20 * sim::kMillisecond;
    sim::Time duration = 100 * sim::kMillisecond;
    std::uint64_t seed = 1;
    const char *json = "BENCH_shard.json";
    /** Report the speedup but never fail on it (sanitizer smoke
     *  runs, where wall clock measures the sanitizer). */
    bool speedGate = true;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto fail = [arg] {
            std::fprintf(stderr, "bad argument: %s\n", arg);
            std::exit(2);
        };
        if (std::strncmp(arg, "--shards=", 9) == 0) {
            a.shards = unsigned(std::strtoul(arg + 9, nullptr, 10));
            if (a.shards < 2)
                fail();
        } else if (std::strncmp(arg, "--clients=", 10) == 0) {
            double v = 0;
            if (!load::parseRate(arg + 10, &v) || v < 1)
                fail();
            a.clients = std::uint64_t(v);
        } else if (std::strncmp(arg, "--rate=", 7) == 0) {
            if (!load::parseRate(arg + 7, &a.rate) || a.rate <= 0)
                fail();
        } else if (std::strncmp(arg, "--endpoints=", 12) == 0) {
            a.endpoints = unsigned(std::strtoul(arg + 12, nullptr, 10));
            if (a.endpoints == 0)
                fail();
        } else if (std::strncmp(arg, "--warmup=", 9) == 0) {
            if (!load::parseDuration(arg + 9, &a.warmup))
                fail();
        } else if (std::strncmp(arg, "--duration=", 11) == 0) {
            if (!load::parseDuration(arg + 11, &a.duration))
                fail();
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            a.seed = std::strtoull(arg + 7, nullptr, 10);
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            a.json = arg + 7;
        } else if (std::strcmp(arg, "--no-speed-gate") == 0) {
            a.speedGate = false;
        }
    }
    return a;
}

/** FNV-1a, the digest every replay must reproduce bit-for-bit. */
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

/** One partition's private KV world: server, clients and fabric all
 *  intra-shard (closure plane), exactly the load_sweep IB stack. */
struct KvWorld
{
    sim::EventQueue &eq;
    net::Fabric fabric;
    mem::MemoryManager serverMm, clientMm;
    mem::AddressSpace &serverAs, &clientAs;
    core::NpfController serverNpfc, clientNpfc;
    core::ChannelId sch, cch;
    HostModel host;
    KvStore kv;
    KvRpcConfig rpc;
    KvRcServer server;
    std::vector<std::unique_ptr<ib::QueuePair>> qps;
    std::deque<KvRcTransport> transports;
    load::Recorder rec;
    load::ClientPool pool;

    KvWorld(sim::EventQueue &q, const load::PoolConfig &pc,
            unsigned endpoints, sim::Time warmup, sim::Time duration)
        : eq(q),
          fabric(eq, 2,
                 net::FabricConfig{net::LinkConfig{56e9, 300, 32}, 200}),
          serverMm(2 * kGiB), clientMm(2 * kGiB),
          serverAs(serverMm.createAddressSpace("kv")),
          clientAs(clientMm.createAddressSpace("load")),
          serverNpfc(eq), clientNpfc(eq),
          sch(serverNpfc.attach(serverAs)),
          cch(clientNpfc.attach(clientAs)),
          kv(serverAs, 2 * kGiB / 4, 1024),
          server(eq, kv, host, serverAs, rpc),
          rec(load::RecorderConfig{warmup, duration}), pool(eq, pc)
    {
        host.addInstance();
        for (std::uint64_t k = 0; k < pc.workload.keys.keys; ++k)
            kv.set(k);
        pool.setRecorder(rec);
        for (unsigned i = 0; i < endpoints; ++i) {
            auto qpS = std::make_unique<ib::QueuePair>(eq, fabric, 0,
                                                       serverNpfc, sch);
            auto qpC = std::make_unique<ib::QueuePair>(eq, fabric, 1,
                                                       clientNpfc, cch);
            qpS->connect(*qpC);
            qpC->connect(*qpS);
            auto reqs = std::make_shared<sim::RingDeque<KvRpcRequest>>();
            auto rsps = std::make_shared<sim::RingDeque<KvRpcResponse>>();
            server.addSession(*qpS, reqs, rsps);
            transports.emplace_back(*qpC, clientAs, reqs, rsps, rpc);
            transports.back().connect(pool);
            qps.push_back(std::move(qpS));
            qps.push_back(std::move(qpC));
        }
    }
};

/** Partition p's endpoint of the cross-partition RC ring: node p of
 *  an N-node fabric, streaming Sends to partition (p+1) % N over the
 *  record plane while receiving from (p-1) % N. Records between
 *  partitions on one shard take the fabric's local path, with the
 *  same hops and order keys as the cross-shard one. */
struct StreamWorld
{
    static constexpr std::size_t kMsgBytes = 8192;
    static constexpr unsigned kRecvDepth = 16;
    static constexpr unsigned kSendWindow = 4;

    mem::MemoryManager mm;
    mem::AddressSpace &as;
    core::NpfController npfc;
    core::ChannelId ch;
    std::unique_ptr<ib::QueuePair> tx, rx;
    mem::VirtAddr sbuf = 0, rbuf = 0;
    std::uint64_t sent = 0, received = 0;
    bool stopped = false;

    StreamWorld(sim::EventQueue &eq, net::Fabric &facet, unsigned p,
                unsigned partitions)
        : mm(1 * kGiB), as(mm.createAddressSpace("stream")), npfc(eq),
          ch(npfc.attach(as))
    {
        sbuf = as.allocRegion(kMsgBytes * kSendWindow, "stream-s");
        rbuf = as.allocRegion(kMsgBytes * kRecvDepth, "stream-r");
        as.touch(sbuf, kMsgBytes * kSendWindow, /*write=*/true);
        as.touch(rbuf, kMsgBytes * kRecvDepth, /*write=*/true);

        tx = std::make_unique<ib::QueuePair>(eq, facet, p, npfc, ch,
                                             ib::QpConfig{}, 0xbeef + p);
        rx = std::make_unique<ib::QueuePair>(eq, facet, p, npfc, ch,
                                             ib::QpConfig{}, 0xfeed + p);
        tx->connectRemote((p + 1) % partitions, /*my_kind=*/1,
                          /*peer_kind=*/0);
        rx->connectRemote((p + partitions - 1) % partitions,
                          /*my_kind=*/0, /*peer_kind=*/1);

        rx->onCompletion([this](const ib::Completion &c) {
            if (!c.isRecv)
                return;
            ++received;
            if (!stopped)
                postRecv(received % kRecvDepth);
        });
        tx->onCompletion([this](const ib::Completion &c) {
            if (c.isRecv)
                return;
            ++sent;
            if (!stopped)
                postSend(sent % kSendWindow);
        });
        for (unsigned i = 0; i < kRecvDepth; ++i)
            postRecv(i);
        for (unsigned i = 0; i < kSendWindow; ++i)
            postSend(i);
    }

    void
    postSend(unsigned slot)
    {
        ib::WorkRequest w;
        w.op = ib::Opcode::Send;
        w.local = sbuf + slot * kMsgBytes;
        w.len = kMsgBytes;
        tx->postSend(w);
    }

    void
    postRecv(unsigned slot)
    {
        ib::WorkRequest w;
        w.local = rbuf + slot * kMsgBytes;
        w.len = kMsgBytes;
        rx->postRecv(w);
    }
};

struct Partition
{
    std::unique_ptr<KvWorld> kv;
    std::unique_ptr<StreamWorld> stream;
};

struct RunResult
{
    std::uint64_t events = 0; ///< executed, summed over shards
    double seconds = 0;       ///< wall clock around engine.run()
    std::uint64_t completions = 0;
    std::uint64_t streamMsgs = 0;
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> shardEvents;
    std::vector<sim::ShardedEngine::Stats> sync; ///< per shard
};

/// Must not exceed the stream fabric's recordLookahead()
/// (2000 ns propagation + 500 ns switch = 2500 ns).
constexpr sim::Time kLookahead = 2500;

/** Run a.shards partitions on @p shards shards. */
RunResult
runConfig(const Args &a, unsigned shards)
{
    const unsigned parts = a.shards;
    sim::ShardedEngine::Config ec;
    ec.shards = shards;
    ec.lookahead = kLookahead;
    sim::ShardedEngine engine(ec);
    auto shardOf = [shards](unsigned p) { return p % shards; };
    auto forEachPart = [&](const std::function<void(unsigned)> &fn) {
        for (unsigned s = 0; s < shards; ++s)
            engine.invokeOn(s, [&, s] {
                for (unsigned p = 0; p < parts; ++p)
                    if (shardOf(p) == s)
                        fn(p);
            });
    };

    // Long-haul stream links, so the record lookahead (propagation +
    // switch latency = 2.5 us) buys the engine a useful horizon.
    std::vector<std::unique_ptr<net::Fabric>> facets(shards);
    for (unsigned s = 0; s < shards; ++s)
        engine.invokeOn(s, [&, s] {
            net::FabricConfig fc{net::LinkConfig{56e9, 2000, 32}, 500};
            facets[s] =
                std::make_unique<net::Fabric>(engine.queue(s), parts, fc);
            std::vector<std::uint16_t> owner(parts);
            for (unsigned p = 0; p < parts; ++p)
                owner[p] = std::uint16_t(shardOf(p));
            facets[s]->shardBind(engine, s, std::move(owner));
        });
    std::vector<Partition> worlds(parts);
    forEachPart([&](unsigned p) {
        sim::EventQueue &eq = engine.queue(shardOf(p));
        load::PoolConfig pc;
        pc.clients = a.clients / parts;
        // Distinct per-partition streams; identical on every replay.
        pc.seed = a.seed * 0x9e37 + p;
        std::string err;
        auto spec = load::WorkloadSpec::parse(
            "keys=zipf:n=10k,theta=0.99;get=0.9", &err);
        pc.workload = *spec;
        pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
        pc.workload.arrival.ratePerSec = a.rate / parts;
        unsigned eps = a.endpoints / parts;
        if (eps == 0)
            eps = 1;
        worlds[p].stream = std::make_unique<StreamWorld>(
            eq, *facets[shardOf(p)], p, parts);
        worlds[p].kv = std::make_unique<KvWorld>(eq, pc, eps, a.warmup,
                                                 a.duration);
        worlds[p].kv->pool.start();
    });

    auto t0 = std::chrono::steady_clock::now();
    engine.run(a.warmup + a.duration);
    auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (unsigned s = 0; s < shards; ++s) {
        r.shardEvents.push_back(engine.queue(s).stats().executed);
        r.events += r.shardEvents.back();
        r.sync.push_back(engine.stats(s));
    }
    // Digest in partition order, from figures that must not depend on
    // which shard hosted which partition.
    Digest d;
    std::uint64_t scheduled = 0;
    for (unsigned s = 0; s < shards; ++s)
        scheduled += engine.queue(s).stats().scheduled;
    std::vector<std::vector<std::uint64_t>> figures(parts);
    forEachPart([&](unsigned p) {
        Partition &w = worlds[p];
        w.kv->pool.stop();
        w.stream->stopped = true;
        r.completions += w.kv->pool.completions();
        r.streamMsgs += w.stream->received;
        figures[p] = {p,
                      w.kv->pool.completions(),
                      w.kv->pool.timeouts(),
                      w.kv->pool.retries(),
                      w.kv->rec.completions(0),
                      w.kv->rec.completions(1),
                      w.kv->serverNpfc.stats().npfs,
                      w.kv->clientNpfc.stats().npfs,
                      w.stream->sent,
                      w.stream->received,
                      w.stream->tx->stats().dataPacketsSent,
                      w.stream->tx->stats().bytesDelivered,
                      w.stream->rx->stats().messagesDelivered,
                      w.stream->npfc.stats().npfs};
        // Worlds die on the thread that built them, before the engine
        // joins its workers.
        w.kv.reset();
        w.stream.reset();
    });
    for (const auto &f : figures)
        for (std::uint64_t v : f)
            d.mix(v);
    d.mix(r.events);
    d.mix(scheduled);
    r.digest = d.h;
    for (unsigned s = 0; s < shards; ++s)
        engine.invokeOn(s, [&, s] { facets[s].reset(); });
    return r;
}

void
printRow(unsigned shards, const RunResult &r)
{
    row("%7u %12" PRIu64 " %9.3f %14.0f %12" PRIu64 " %10" PRIu64
        " %016" PRIx64,
        shards, r.events, r.seconds, double(r.events) / r.seconds,
        r.completions, r.streamMsgs, r.digest);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    unsigned cpus = std::thread::hardware_concurrency();
    const sim::Time span = a.warmup + a.duration;

    header("shard_scale: sharded engine scaling gate");
    row("partitions=%u clients=%" PRIu64 " rate=%.0f/s endpoints=%u "
        "warmup+duration=%.0fms lookahead=%" PRIu64 "ns cpus=%u",
        a.shards, a.clients, a.rate, a.endpoints,
        sim::toSeconds(span) * 1e3, kLookahead, cpus);
    row("%7s %12s %9s %14s %12s %10s %16s", "shards", "events", "wall[s]",
        "events/s", "kv-compl", "stream-msg", "digest");

    RunResult r1 = runConfig(a, 1);
    printRow(1, r1);
    RunResult rn = runConfig(a, a.shards);
    printRow(a.shards, rn);

    // Both configurations host the same partitions, so they must have
    // simulated the same thing; otherwise a speedup means nothing.
    bool sameWork = r1.events == rn.events && r1.digest == rn.digest;
    row("1 shard vs %u shards: %s", a.shards,
        sameWork ? "same events and digest" : "MISMATCH");

    // Replay the parallel configuration: conservative sync must make
    // the N-shard run a pure function of the seed, thread timing be
    // damned.
    RunResult rr = runConfig(a, a.shards);
    bool deterministic = rr.digest == rn.digest;
    row("replay digest %016" PRIx64 " vs %016" PRIx64 " : %s",
        rr.digest, rn.digest, deterministic ? "identical" : "MISMATCH");

    // Sync accounting of the measured N-shard run. The half-lookahead
    // rule bounds each shard's windows by 2 * span / lookahead + 2.
    const std::uint64_t windowBound = 2 * span / kLookahead + 2;
    row("%7s %12s %9s %7s %11s %12s", "shard", "events", "windows",
        "parks", "blocked[s]", "ring-hwm");
    for (unsigned s = 0; s < a.shards; ++s)
        row("%7u %12" PRIu64 " %9" PRIu64 " %7" PRIu64 " %11.3f %12zu", s,
            rn.shardEvents[s], rn.sync[s].windows, rn.sync[s].parks,
            double(rn.sync[s].blockedNs) * 1e-9, rn.sync[s].ringHighWater);
    row("window bound 2*span/lookahead+2 = %" PRIu64, windowBound);

    const char *verdict;
    double speedup = r1.seconds / rn.seconds;
    if (!sameWork)
        verdict = "not_comparable";
    else if (cpus < 4)
        verdict = "insufficient_cores";
    else if (speedup >= 3.0)
        verdict = "pass";
    else
        verdict = "fail";
    if (sameWork)
        row("speedup %ux vs 1: %.2fx  (gate >=3x: %s)", a.shards, speedup,
            verdict);

    FILE *f = std::fopen(a.json, "w");
    if (!f) {
        std::perror("fopen BENCH_shard.json");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"shard_scale\",\n");
    std::fprintf(f, "  \"partitions\": %u,\n", a.shards);
    std::fprintf(f, "  \"clients\": %" PRIu64 ",\n", a.clients);
    std::fprintf(f, "  \"cpus\": %u,\n", cpus);
    std::fprintf(f, "  \"span_ns\": %" PRIu64 ",\n", span);
    std::fprintf(f, "  \"lookahead_ns\": %" PRIu64 ",\n", kLookahead);
    std::fprintf(f, "  \"results\": [\n");
    for (const RunResult *r : {&r1, &rn})
        std::fprintf(f,
                     "    {\"shards\": %zu, \"events\": %" PRIu64
                     ", \"seconds\": %.6f, \"events_per_sec\": %.0f, "
                     "\"digest\": \"%016" PRIx64 "\"}%s\n",
                     r->shardEvents.size(), r->events, r->seconds,
                     double(r->events) / r->seconds, r->digest,
                     r == &r1 ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"same_work\": %s,\n", sameWork ? "true" : "false");
    std::fprintf(f, "  \"shard_sync\": [\n");
    for (unsigned s = 0; s < a.shards; ++s)
        std::fprintf(f,
                     "    {\"shard\": %u, \"events\": %" PRIu64
                     ", \"windows\": %" PRIu64 ", \"parks\": %" PRIu64
                     ", \"blocked_s\": %.6f, \"ring_high_water\": %zu}%s\n",
                     s, rn.shardEvents[s], rn.sync[s].windows,
                     rn.sync[s].parks, double(rn.sync[s].blockedNs) * 1e-9,
                     rn.sync[s].ringHighWater,
                     s + 1 < a.shards ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"speedup_vs_1shard\": %.2f,\n", speedup);
    std::fprintf(f, "  \"determinism_replay\": \"%s\",\n",
                 deterministic ? "ok" : "mismatch");
    std::fprintf(f, "  \"scaling_gate\": \"%s\"\n}\n", verdict);
    std::fclose(f);
    row("wrote %s", a.json);

    if (!deterministic || !sameWork)
        return 1;
    if (a.speedGate && cpus >= 4 && speedup < 3.0)
        return 1;
    return 0;
}
