/**
 * @file
 * One repeat of one benchmark workload, measured from outside the
 * layers: world construction, the warmup + measure run, a drain and
 * teardown. Host time comes from steady_clock spans around the calls
 * this file makes into each layer; counts come from the layers' public
 * obs::Registry counters, snapshotted at the measure-window edges.
 * With --trace-out the run also arms the event-loop profiler (per-site
 * inclusive host time) and, on single-queue workloads, an obs::Session
 * with full flow tracing, and writes a Chrome trace of the setup spans
 * and the per-site profile.
 *
 *   npfbench --workload=NAME --seed=N [--shards=1|2] [--trace-out=STEM]
 *
 * Workloads (perfbench/README.md has the rationale):
 *   eth_memcached     memcached over TCP, cold rx ring + backup ring
 *   ib_kv_overcommit  KV RPC over IB RC, server memory < key set
 *   ib_kv_incast      KV RPC over IB RC through a lossless leaf-spine
 *   sharded_kv        two KV worlds coupled by cross-shard RC streams
 *
 * The last line of stdout is one JSON object with every raw figure;
 * perfbench/run.py repeats this binary, checks and aggregates.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/kv_rpc.hh"
#include "app/kv_store.hh"
#include "app/memcached.hh"
#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "ib/queue_pair.hh"
#include "load/client_pool.hh"
#include "load/recorder.hh"
#include "load/spec.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"
#include "net/topology.hh"
#include "obs/metrics.hh"
#include "obs/session.hh"
#include "sim/shard.hh"
#include "tcp/endpoint.hh"

using namespace npf;

namespace {

constexpr std::size_t kMiB = 1ull << 20;
constexpr std::size_t kGiB = 1ull << 30;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
die(const char *fmt, const char *arg)
{
    std::fprintf(stderr, "npfbench: ");
    std::fprintf(stderr, fmt, arg);
    std::fputc('\n', stderr);
    std::exit(2);
}

// --- setup spans --------------------------------------------------------

/** Host-time spans around the setup calls, tagged with their layer. */
struct SetupSpans
{
    struct Span
    {
        std::string layer, name;
        double start = 0, dur = 0; ///< seconds from origin
    };

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;

    template <typename F>
    void
    time(const char *layer, const std::string &name, F &&fn)
    {
        Clock::time_point t0 = Clock::now();
        fn();
        double start =
            std::chrono::duration<double>(t0 - origin).count();
        spans.push_back({layer, name, start, secondsSince(t0)});
    }

    double
    total() const
    {
        double s = 0;
        for (const Span &sp : spans)
            s += sp.dur;
        return s;
    }
};

// --- registry counters --------------------------------------------------

using Counters = std::map<std::string, double>;

/** "mem.mm3.major_faults" -> "mem.mm.major_faults": instances fold. */
std::string
foldInstance(const std::string &name)
{
    std::string::size_type a = name.find('.');
    if (a == std::string::npos)
        return name;
    std::string::size_type b = name.find('.', a + 1);
    if (b == std::string::npos)
        return name;
    std::string::size_type e = b;
    while (e > a + 1 && name[e - 1] >= '0' && name[e - 1] <= '9')
        --e;
    return name.substr(0, e) + name.substr(b);
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Every counter and gauge of the calling thread's registry, summed
 *  over instances (high-water marks take the maximum instead). */
void
addRegistry(Counters &out)
{
    obs::Registry &reg = obs::Registry::global();
    for (const std::string &name : reg.names()) {
        std::optional<double> v = reg.value(name);
        if (!v)
            continue;
        std::string key = foldInstance(name);
        if (endsWith(key, "_hwm_bytes"))
            out[key] = std::max(out[key], *v);
        else
            out[key] += *v;
    }
}

// --- event-loop profile -------------------------------------------------

/** Layer (src/ module) that owns an event-site label. */
const char *
layerOf(const std::string &site)
{
    // The app servers schedule nothing of their own: their work runs
    // inside the transport callbacks that deliver requests.
    static const std::pair<const char *, const char *> kPrefixes[] = {
        {"ib.", "ib"},       {"net.", "net"},     {"net::", "net"},
        {"eth.", "eth"},     {"tcp.", "tcp"},     {"npf.", "core"},
        {"core.", "core"},   {"load::", "load"},  {"load.", "load"},
        {"shard::", "sim"},  {"sim.", "sim"},     {"fault.", "fault"},
        {"obs.", "obs"},
    };
    if (site.empty())
        return "unlabeled";
    for (const auto &[prefix, layer] : kPrefixes)
        if (site.compare(0, std::strlen(prefix), prefix) == 0)
            return layer;
    return "other";
}

struct SiteTotals
{
    std::uint64_t count = 0;
    std::uint64_t wallNs = 0;
};

/** Merge one queue's per-site profile into @p out, keyed by label. */
void
addProfile(const sim::EventQueue &eq, std::map<std::string, SiteTotals> &out)
{
    for (const auto &[site, sp] : eq.siteProfiles()) {
        SiteTotals &t = out[site != nullptr ? site : ""];
        t.count += sp.count;
        t.wallNs += sp.wallNs;
    }
}

// --- digest -------------------------------------------------------------

/** FNV-1a over the simulated outcome; any host-time input is a bug. */
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

    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }

    void
    mix(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }
};

void
mixHistogram(Digest &d, const load::Histogram &h)
{
    d.mix(h.count());
    d.mix(h.sum());
    d.mix(h.min());
    d.mix(h.max());
    for (double p : {50.0, 90.0, 99.0, 99.9, 99.99})
        d.mix(h.percentile(p));
}

// --- workload parameters ------------------------------------------------

struct Workload
{
    std::string name;
    std::uint64_t clients = 0;
    unsigned endpoints = 0;
    double rate = 0; ///< offered req/s (per partition on sharded_kv)
    std::string keys;
    sim::Time warmup = 0, duration = 0, drain = 0;
    std::size_t serverMem = 2 * kGiB; ///< KV server frames
    /** IB fabric (net/topology.hh grammar); empty = two-node fabric.
     *  A switched fabric also means a resident server and DCQCN. */
    std::string topology;
};

Workload
workloadByName(const std::string &name)
{
    Workload w;
    w.name = name;
    w.drain = 50 * sim::kMillisecond;
    if (name == "eth_memcached") {
        w.clients = 100000;
        w.endpoints = 64;
        w.rate = 150e3;
        w.keys = "keys=zipf:n=100k,theta=0.99;get=0.9";
        w.warmup = 600 * sim::kMillisecond;
        w.duration = 4 * sim::kSecond;
    } else if (name == "ib_kv_overcommit") {
        w.clients = 2000;
        w.endpoints = 8;
        w.rate = 25e3;
        w.keys = "keys=zipf:n=100k,theta=0.99;get=0.5";
        // Reclaim takes seconds to settle after the prefill; inside a
        // 0.5 s warmup that transient set p99.99 on some seeds and not
        // others (seed-to-seed IQR up to 21% instead of ~5%).
        w.warmup = 8 * sim::kSecond;
        w.duration = 16 * sim::kSecond;
        w.drain = 200 * sim::kMillisecond;
        // 72 MiB of frames under a ~100 MiB key set: reclaim and swap
        // run through the whole window at a steady ~1.2k major
        // faults/s. Much less memory (48 MiB at 80k req/s) tips some
        // seeds into multi-millisecond fault queueing and not others.
        w.serverMem = 72 * kMiB;
    } else if (name == "ib_kv_incast") {
        w.clients = 100000;
        w.endpoints = 56; // 8 per client host
        w.rate = 100e3;
        w.keys = "keys=zipf:n=100k,theta=0.99;get=0.95";
        w.warmup = 200 * sim::kMillisecond;
        w.duration = 2500 * sim::kMillisecond;
        // Two leaves of four hosts, one spine, 10:1 oversubscribed
        // uplinks (0.8 Gb/s) carrying the 4/7 of responses that cross
        // leaves at ~60% load; ECN marks above 4 KiB, PFC above 16 KiB.
        w.topology = "leafspine:hosts=8,leaves=2,spines=1,ovs=10,bw=2g,"
                     "queue=4m,ecn=4k,xoff=16k,xon=8k";
    } else if (name == "sharded_kv") {
        w.clients = 20000;
        w.endpoints = 16;
        w.rate = 60e3;
        w.keys = "keys=zipf:n=10k,theta=0.99;get=0.9";
        w.warmup = 100 * sim::kMillisecond;
        w.duration = 1500 * sim::kMillisecond;
    } else {
        die("unknown workload '%s'", name.c_str());
    }
    return w;
}

load::PoolConfig
poolConfig(const Workload &w, std::uint64_t seed)
{
    std::string err;
    auto spec = load::WorkloadSpec::parse(w.keys, &err);
    if (!spec)
        die("bad workload spec: %s", err.c_str());
    load::PoolConfig pc;
    pc.clients = w.clients;
    pc.seed = seed;
    pc.workload = *spec;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = w.rate;
    return pc;
}

// --- results ------------------------------------------------------------

/** Request accounting for the measure window (plus the drain). */
struct Window
{
    std::uint64_t inflightStart = 0, issued = 0, completed = 0;
    std::uint64_t timeouts = 0, shed = 0, inflightEnd = 0;
    std::uint64_t drained = 0, stranded = 0;

    void
    add(const Window &o)
    {
        inflightStart += o.inflightStart;
        issued += o.issued;
        completed += o.completed;
        timeouts += o.timeouts;
        shed += o.shed;
        inflightEnd += o.inflightEnd;
        drained += o.drained;
        stranded += o.stranded;
    }
};

struct Result
{
    SetupSpans setup;
    double runSeconds = 0, teardownSeconds = 0;
    double simWindowSeconds = 0;
    load::Histogram latency; ///< response latency [us], all classes
    Window win;
    std::uint64_t executed = 0, scheduled = 0, cancelled = 0;
    std::vector<std::uint64_t> shardEvents;
    Counters atStart, atEnd;
    std::map<std::string, SiteTotals> profile;
    std::uint64_t digest = 0;
};

/** Open the measure window on @p pool. */
void
windowStart(load::ClientPool &pool, Window &w)
{
    pool.resetCounters();
    w.inflightStart = pool.inFlight();
}

void
windowEnd(load::ClientPool &pool, Window &w)
{
    w.issued = pool.issued();
    w.completed = pool.completions();
    w.timeouts = pool.timeouts();
    w.shed = pool.shedArrivals();
    w.inflightEnd = pool.inFlight();
    pool.stop();
}

void
afterDrain(load::ClientPool &pool, Window &w)
{
    w.drained = pool.completions() - w.completed;
    w.stranded = pool.inFlight();
}

void
mergeLatency(load::Histogram &out, const load::Recorder &rec)
{
    for (load::Recorder::ClassId c = 0; c < rec.classes(); ++c)
        out.merge(rec.response(c));
}

// --- single-queue worlds ------------------------------------------------

/**
 * Drive world @p w (pool and rec members) on queue @p q through
 * warmup, measure and drain, then tear both down. Both are consumed
 * so teardown is timed.
 */
template <typename World>
void
runSingleQueue(std::unique_ptr<sim::EventQueue> q, std::unique_ptr<World> w,
               const Workload &wl, const std::string &trace_stem,
               Result &r)
{
    sim::EventQueue &eq = *q;
    std::unique_ptr<obs::Session> session;
    if (!trace_stem.empty()) {
        obs::SessionOptions opt;
        opt.trace = true;
        opt.traceOut = trace_stem + ".flow.json";
        opt.profileEventLoop = true;
        session = std::make_unique<obs::Session>(eq, opt);
    }
    load::ClientPool &pool = *w->pool;
    const sim::EventQueue::Stats s0 = eq.stats();

    Clock::time_point t0 = Clock::now();
    eq.runUntil(wl.warmup);
    windowStart(pool, r.win);
    addRegistry(r.atStart);
    eq.runUntil(wl.warmup + wl.duration);
    r.runSeconds = secondsSince(t0);
    const sim::EventQueue::Stats s1 = eq.stats();
    addRegistry(r.atEnd);
    windowEnd(pool, r.win);

    eq.runUntil(wl.warmup + wl.duration + wl.drain);
    afterDrain(pool, r.win);

    r.executed = s1.executed - s0.executed;
    r.scheduled = s1.scheduled - s0.scheduled;
    r.cancelled = s1.cancelled - s0.cancelled;
    r.shardEvents = {r.executed};
    r.simWindowSeconds = sim::toSeconds(wl.duration);
    mergeLatency(r.latency, *w->rec);
    addProfile(eq, r.profile);
    session.reset(); // writes the flow trace

    Digest d;
    mixHistogram(d, r.latency);
    for (std::uint64_t v :
         {r.win.inflightStart, r.win.issued, r.win.completed,
          r.win.timeouts, r.win.shed, r.win.inflightEnd, r.win.drained,
          r.win.stranded, r.executed, r.scheduled, r.cancelled})
        d.mix(v);
    for (const auto &[name, v] : r.atEnd) {
        // A traced run's obs::Session registers its own obs.* and
        // sim.eq* entries; the queue's stats are mixed above.
        if (name.compare(0, 4, "obs.") == 0 ||
            name.compare(0, 6, "sim.eq") == 0)
            continue;
        auto start = r.atStart.find(name);
        d.mix(name);
        d.mix(v - (start != r.atStart.end() ? start->second : 0.0));
    }
    r.digest = d.h;

    Clock::time_point t1 = Clock::now();
    w.reset();
    q.reset();
    r.teardownSeconds = secondsSince(t1);
}

/**
 * Memcached over TCP on the paper's direct Ethernet channel (§6). The
 * same testbed as bench/common.hh's EthBed and load_sweep's eth path,
 * built step by step so each layer's setup gets its own span.
 */
struct EthWorld
{
    sim::EventQueue &eq;
    std::unique_ptr<mem::MemoryManager> serverMm, clientMm;
    mem::AddressSpace *serverAs = nullptr, *clientAs = nullptr;
    std::unique_ptr<core::NpfController> serverNpfc, clientNpfc;
    core::ChannelId sch{}, cch{};
    std::unique_ptr<eth::EthNic> serverNic, clientNic;
    std::unique_ptr<tcp::Endpoint> server, client;
    app::HostModel host;
    std::unique_ptr<app::KvStore> kv;
    std::unique_ptr<app::MemcachedServer> memcached;
    std::vector<std::unique_ptr<app::RpcChannel>> chans;
    std::deque<app::ChannelTransport> transports;
    std::unique_ptr<load::Recorder> rec;
    std::unique_ptr<load::ClientPool> pool;

    EthWorld(sim::EventQueue &q, const Workload &wl,
             const load::PoolConfig &pc, SetupSpans &st)
        : eq(q)
    {
        st.time("mem", "mem.address_spaces", [&] {
            serverMm = std::make_unique<mem::MemoryManager>(2 * kGiB);
            clientMm = std::make_unique<mem::MemoryManager>(1 * kGiB);
            serverAs = &serverMm->createAddressSpace("server");
            clientAs = &clientMm->createAddressSpace("client");
        });
        st.time("core", "core.npf_controllers", [&] {
            serverNpfc = std::make_unique<core::NpfController>(eq);
            clientNpfc = std::make_unique<core::NpfController>(eq);
            sch = serverNpfc->attach(*serverAs);
            cch = clientNpfc->attach(*clientAs);
        });
        st.time("net", "net.nics_and_link", [&] {
            serverNic = std::make_unique<eth::EthNic>(eq, *serverNpfc);
            clientNic = std::make_unique<eth::EthNic>(eq, *clientNpfc);
            net::LinkConfig link;
            link.bandwidthBitsPerSec = 12e9; // the §5 prototype NIC
            link.propagation = 1000;
            serverNic->connectTo(*clientNic, link);
            clientNic->connectTo(*serverNic, link);
        });
        st.time("tcp", "tcp.endpoints_and_handshakes", [&] {
            // Server: cold rx ring, rNPFs park in the backup ring.
            eth::RxRingConfig srvRing;
            srvRing.size = 256;
            srvRing.bmSize = 64;
            srvRing.policy = eth::RxFaultPolicy::BackupRing;
            eth::RxRingConfig cliRing;
            cliRing.size = 1024;
            cliRing.policy = eth::RxFaultPolicy::Pin;
            tcp::EndpointConfig scfg, ccfg;
            scfg.rxBufBytes = ccfg.rxBufBytes = 2048;
            scfg.tcp.mss = ccfg.tcp.mss = 1448;
            scfg.tcp.maxWindowBytes = ccfg.tcp.maxWindowBytes = 64 * 1024;
            ccfg.pinRxBuffers = true;
            server = std::make_unique<tcp::Endpoint>(
                eq, *serverNic, *serverAs, sch, srvRing, 0, scfg);
            client = std::make_unique<tcp::Endpoint>(
                eq, *clientNic, *clientAs, cch, cliRing, 0, ccfg);
            for (std::uint32_t id = 1; id <= wl.endpoints; ++id)
                handshake(id);
        });
        st.time("app", "app.kv_prefill_server", [&] {
            host.addInstance();
            kv = std::make_unique<app::KvStore>(*serverAs, 2 * kGiB / 4,
                                                1024);
            memcached =
                std::make_unique<app::MemcachedServer>(eq, *kv, host);
            for (std::uint64_t k = 0; k < pc.workload.keys.keys; ++k)
                kv->set(k);
        });
        st.time("load", "load.pool_and_transports", [&] {
            rec = std::make_unique<load::Recorder>(
                load::RecorderConfig{wl.warmup, wl.duration});
            pool = std::make_unique<load::ClientPool>(eq, pc);
            pool->setRecorder(*rec);
            for (std::uint32_t id = 1; id <= wl.endpoints; ++id) {
                chans.push_back(std::make_unique<app::RpcChannel>(
                    client->connection(id), server->connection(id)));
                memcached->serve(*chans.back());
                transports.emplace_back(*chans.back());
                transports.back().connect(*pool);
            }
            pool->start();
        });
    }

    void
    handshake(std::uint32_t id)
    {
        server->connection(id).listen();
        bool done = false, ok = false;
        client->connection(id).connect([&](bool success) {
            done = true;
            ok = success;
        });
        eq.runUntilCondition([&] { return done; },
                             eq.now() + 300 * sim::kSecond);
        if (!ok)
            die("tcp connect %s failed", std::to_string(id).c_str());
    }
};

/**
 * Zero-copy KV RPC over IB RC: the server on host 0, clients on the
 * others. Two-node fabric (overcommit, sharded partitions) or the
 * workload's switched topology (incast). The same wiring as
 * load_sweep's ib path, built step by step for per-layer setup spans.
 */
struct IbKvWorld
{
    sim::EventQueue &eq;
    std::unique_ptr<net::Fabric> fabric;
    std::unique_ptr<mem::MemoryManager> serverMm, clientMm;
    mem::AddressSpace *serverAs = nullptr, *clientAs = nullptr;
    std::unique_ptr<core::NpfController> serverNpfc;
    core::ChannelId sch{};
    std::vector<std::unique_ptr<core::NpfController>> clientNpfcs;
    std::vector<core::ChannelId> cchs;
    app::HostModel host;
    std::unique_ptr<app::KvStore> kv;
    std::unique_ptr<app::KvRcServer> server;
    std::vector<std::unique_ptr<ib::QueuePair>> qps;
    std::deque<app::KvRcTransport> transports;
    std::unique_ptr<load::Recorder> rec;
    std::unique_ptr<load::ClientPool> pool;

    IbKvWorld(sim::EventQueue &q, const Workload &wl,
              const load::PoolConfig &pc, SetupSpans &st)
        : eq(q)
    {
        bool switched = !wl.topology.empty();
        unsigned clientHosts = 1;
        st.time("net", "net.fabric", [&] {
            if (!switched) {
                fabric = std::make_unique<net::Fabric>(
                    eq, 2,
                    net::FabricConfig{net::LinkConfig{56e9, 300, 32}, 200});
                return;
            }
            std::string err;
            auto topo = net::Topology::parse(wl.topology, &err);
            if (!topo)
                die("bad topology: %s", err.c_str());
            clientHosts = topo->hosts - 1;
            fabric = std::make_unique<net::Fabric>(eq, *topo);
        });
        st.time("mem", "mem.address_spaces", [&] {
            serverMm = std::make_unique<mem::MemoryManager>(wl.serverMem);
            clientMm = std::make_unique<mem::MemoryManager>(2 * kGiB);
            serverAs = &serverMm->createAddressSpace("kv");
            clientAs = &clientMm->createAddressSpace("load");
        });
        st.time("core", "core.npf_controllers", [&] {
            serverNpfc = std::make_unique<core::NpfController>(eq);
            sch = serverNpfc->attach(*serverAs);
            for (unsigned h = 0; h < clientHosts; ++h) {
                clientNpfcs.push_back(
                    std::make_unique<core::NpfController>(eq));
                cchs.push_back(clientNpfcs.back()->attach(*clientAs));
            }
        });
        app::KvRpcConfig rpc;
        st.time("app", "app.kv_prefill_server", [&] {
            host.addInstance();
            kv = std::make_unique<app::KvStore>(*serverAs, 256 * kMiB, 1024);
            server = std::make_unique<app::KvRcServer>(eq, *kv, host,
                                                       *serverAs, rpc);
            for (std::uint64_t k = 0; k < pc.workload.keys.keys; ++k)
                kv->set(k);
        });
        if (switched) {
            // Resident and warm: map every value for the NIC up front
            // so the measure window sees no NPFs at all.
            st.time("core", "core.prefault_values", [&] {
                mem::VirtAddr lo = ~mem::VirtAddr(0), hi = 0;
                for (std::uint64_t k = 0; k < pc.workload.keys.keys; ++k) {
                    app::KvResult v = kv->getRef(k);
                    lo = std::min(lo, v.valueAddr);
                    hi = std::max(hi, v.valueAddr + v.valueLen);
                }
                serverNpfc->prefault(sch, lo, hi - lo, false);
            });
        }
        ib::QpConfig qcfg;
        qcfg.dcqcn.enabled = switched;
        st.time("ib", "ib.queue_pairs", [&] {
            for (unsigned i = 0; i < wl.endpoints; ++i) {
                unsigned h = i % clientHosts;
                auto qpS = std::make_unique<ib::QueuePair>(
                    eq, *fabric, 0, *serverNpfc, sch, qcfg);
                auto qpC = std::make_unique<ib::QueuePair>(
                    eq, *fabric, 1 + h, *clientNpfcs[h], cchs[h], qcfg);
                qpS->connect(*qpC);
                qpC->connect(*qpS);
                qps.push_back(std::move(qpS));
                qps.push_back(std::move(qpC));
            }
        });
        st.time("load", "load.pool_and_transports", [&] {
            rec = std::make_unique<load::Recorder>(
                load::RecorderConfig{wl.warmup, wl.duration});
            pool = std::make_unique<load::ClientPool>(eq, pc);
            pool->setRecorder(*rec);
            for (unsigned i = 0; i < wl.endpoints; ++i) {
                auto reqs =
                    std::make_shared<sim::RingDeque<app::KvRpcRequest>>();
                auto rsps =
                    std::make_shared<sim::RingDeque<app::KvRpcResponse>>();
                server->addSession(*qps[2 * i], reqs, rsps);
                transports.emplace_back(*qps[2 * i + 1], *clientAs, reqs,
                                        rsps, rpc);
                transports.back().connect(*pool);
            }
            pool->start();
        });
    }
};

// --- sharded_kv ---------------------------------------------------------

constexpr unsigned kPartitions = 2;

/**
 * Partition p's end of the cross-partition RC ring: node p of the
 * stream fabric, sending to (p+1) % P and receiving from (p-1) % P
 * over the record plane. Which shard hosts the node does not change
 * the records' hop structure or order keys, so the same partitions
 * replay identically on 1 and on 2 shards.
 */
struct StreamEnd
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

    StreamEnd(sim::EventQueue &eq, net::Fabric &facet, unsigned p)
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
        tx->connectRemote((p + 1) % kPartitions, /*my_kind=*/1,
                          /*peer_kind=*/0);
        rx->connectRemote((p + kPartitions - 1) % kPartitions,
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

/** The same kPartitions partitions on @p shards worker shards. */
void
runSharded(const Workload &wl, std::uint64_t seed, unsigned shards,
           bool profile, Result &r)
{
    sim::ShardedEngine::Config ec;
    ec.shards = shards;
    // The stream fabric's record lookahead: 2000 ns + 500 ns.
    ec.lookahead = 2500;
    auto engine = std::make_unique<sim::ShardedEngine>(ec);
    std::vector<std::unique_ptr<net::Fabric>> facets(shards);
    std::vector<std::unique_ptr<StreamEnd>> streams(kPartitions);
    std::vector<std::unique_ptr<IbKvWorld>> parts(kPartitions);
    auto shardOf = [shards](unsigned p) { return p % shards; };

    for (unsigned s = 0; s < shards; ++s) {
        engine->invokeOn(s, [&, s] {
            sim::EventQueue &eq = engine->queue(s);
            r.setup.time("net", "net.stream_facet", [&] {
                net::FabricConfig fc{net::LinkConfig{56e9, 2000, 32}, 500};
                facets[s] = std::make_unique<net::Fabric>(eq, kPartitions,
                                                          fc);
                std::vector<std::uint16_t> owner(kPartitions);
                for (unsigned p = 0; p < kPartitions; ++p)
                    owner[p] = std::uint16_t(shardOf(p));
                facets[s]->shardBind(*engine, s, std::move(owner));
            });
            for (unsigned p = 0; p < kPartitions; ++p) {
                if (shardOf(p) != s)
                    continue;
                r.setup.time("ib", "ib.stream_end", [&] {
                    streams[p] =
                        std::make_unique<StreamEnd>(eq, *facets[s], p);
                });
                parts[p] = std::make_unique<IbKvWorld>(
                    eq, wl, poolConfig(wl, seed * 0x9e37 + p), r.setup);
            }
            if (profile)
                eq.enableProfile(true);
        });
    }

    std::vector<sim::EventQueue::Stats> s0(shards), s1(shards);
    for (unsigned s = 0; s < shards; ++s)
        s0[s] = engine->queue(s).stats();
    std::vector<Window> wins(kPartitions);
    auto forEachPart = [&](const std::function<void(unsigned)> &fn) {
        for (unsigned s = 0; s < shards; ++s)
            engine->invokeOn(s, [&, s] {
                for (unsigned p = 0; p < kPartitions; ++p)
                    if (shardOf(p) == s)
                        fn(p);
            });
    };
    auto snapshot = [&](Counters &out) {
        for (unsigned s = 0; s < shards; ++s)
            engine->invokeOn(s, [&] { addRegistry(out); });
    };

    Clock::time_point t0 = Clock::now();
    engine->run(wl.warmup);
    forEachPart([&](unsigned p) { windowStart(*parts[p]->pool, wins[p]); });
    snapshot(r.atStart);
    engine->run(wl.warmup + wl.duration);
    r.runSeconds = secondsSince(t0);
    for (unsigned s = 0; s < shards; ++s)
        s1[s] = engine->queue(s).stats();
    snapshot(r.atEnd);
    forEachPart([&](unsigned p) {
        windowEnd(*parts[p]->pool, wins[p]);
        streams[p]->stopped = true;
    });
    engine->run(wl.warmup + wl.duration + wl.drain);
    forEachPart([&](unsigned p) { afterDrain(*parts[p]->pool, wins[p]); });

    Digest d;
    for (unsigned s = 0; s < shards; ++s) {
        std::uint64_t ev = s1[s].executed - s0[s].executed;
        r.shardEvents.push_back(ev);
        r.executed += ev;
        r.scheduled += s1[s].scheduled - s0[s].scheduled;
        r.cancelled += s1[s].cancelled - s0[s].cancelled;
        addProfile(engine->queue(s), r.profile);
    }
    for (unsigned p = 0; p < kPartitions; ++p) {
        const IbKvWorld &kw = *parts[p];
        const StreamEnd &se = *streams[p];
        r.win.add(wins[p]);
        mergeLatency(r.latency, *kw.rec);
        for (load::Recorder::ClassId c = 0; c < kw.rec->classes(); ++c)
            mixHistogram(d, kw.rec->response(c));
        for (std::uint64_t v :
             {wins[p].inflightStart, wins[p].issued, wins[p].completed,
              wins[p].inflightEnd, wins[p].drained, wins[p].stranded,
              kw.serverNpfc->stats().npfs, kw.clientNpfcs[0]->stats().npfs,
              se.sent, se.received, se.tx->stats().dataPacketsSent,
              se.rx->stats().messagesDelivered})
            d.mix(v);
    }
    d.mix(r.executed);
    d.mix(r.scheduled);
    r.digest = d.h;
    r.simWindowSeconds = sim::toSeconds(wl.duration);

    Clock::time_point t1 = Clock::now();
    // Worlds die on the thread that built them, before the engine
    // joins its workers.
    for (unsigned s = 0; s < shards; ++s)
        engine->invokeOn(s, [&, s] {
            for (unsigned p = 0; p < kPartitions; ++p) {
                if (shardOf(p) == s) {
                    parts[p].reset();
                    streams[p].reset();
                }
            }
            facets[s].reset();
        });
    engine.reset();
    r.teardownSeconds = secondsSince(t1);
}

// --- output -------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
counterObject(const Counters &c, const Counters *minus)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, v] : c) {
        double base = 0;
        if (minus != nullptr && !endsWith(name, "_hwm_bytes")) {
            auto it = minus->find(name);
            if (it != minus->end())
                base = it->second;
        }
        out += (first ? "\"" : ",\"") + jsonEscape(name) + "\":" +
               num(v - base);
        first = false;
    }
    return out + "}";
}

/** Chrome trace (host time) of the setup spans and the run profile. */
void
writeHostTrace(const std::string &path, const Result &r)
{
    std::ofstream os(path);
    if (!os)
        die("cannot write %s", path.c_str());
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"setup (host time)\"}},\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"run: per-site inclusive host time\"}}";
    double end = 0;
    for (const SetupSpans::Span &sp : r.setup.spans) {
        os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << num(sp.start * 1e6) << ",\"dur\":" << num(sp.dur * 1e6)
           << ",\"cat\":\"" << sp.layer << "\",\"name\":\""
           << jsonEscape(sp.name) << "\"}";
        end = std::max(end, sp.start + sp.dur);
    }
    // Sites laid end to end after setup, largest first: one bar per
    // site whose length is its summed callback time.
    std::vector<std::pair<std::string, SiteTotals>> sites(
        r.profile.begin(), r.profile.end());
    std::sort(sites.begin(), sites.end(), [](const auto &a, const auto &b) {
        return a.second.wallNs > b.second.wallNs;
    });
    double ts = end * 1e6;
    for (const auto &[site, t] : sites) {
        double dur = double(t.wallNs) / 1e3;
        os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":" << num(ts)
           << ",\"dur\":" << num(dur) << ",\"cat\":\"" << layerOf(site)
           << "\",\"name\":\""
           << jsonEscape(site.empty() ? "(unlabeled)" : site)
           << "\",\"args\":{\"events\":" << t.count << "}}";
        ts += dur;
    }
    os << "\n]}\n";
}

void
printResult(const Workload &wl, std::uint64_t seed, unsigned shards,
            bool traced, const Result &r)
{
    const load::Histogram &h = r.latency;
    std::uint64_t n = h.count();
    std::uint64_t rank9999 =
        std::uint64_t(std::ceil(0.9999 * double(n)));

    std::map<std::string, double> setupByLayer;
    for (const SetupSpans::Span &sp : r.setup.spans)
        setupByLayer[sp.layer] += sp.dur;
    std::map<std::string, double> runByLayer;
    for (const auto &[site, t] : r.profile)
        runByLayer[layerOf(site)] += double(t.wallNs) / 1e9;

    std::ostringstream os;
    os << "{\"workload\":\"" << wl.name << "\",\"seed\":" << seed
       << ",\"shards\":" << shards << ",\"traced\":" << (traced ? 1 : 0)
       << ",\"build_type\":\"" << NPFBENCH_BUILD_TYPE
       << "\",\"compiler\":\"" << jsonEscape(NPFBENCH_COMPILER) << "\"";
    os << ",\"setup_s\":" << num(r.setup.total()) << ",\"setup\":{";
    bool first = true;
    for (const auto &[layer, v] : setupByLayer) {
        os << (first ? "\"" : ",\"") << layer << "\":" << num(v);
        first = false;
    }
    os << "},\"run_s\":" << num(r.runSeconds)
       << ",\"teardown_s\":" << num(r.teardownSeconds);
    os << ",\"run_incl\":{";
    first = true;
    for (const auto &[layer, v] : runByLayer) {
        os << (first ? "\"" : ",\"") << layer << "\":" << num(v);
        first = false;
    }
    os << "}";
    os << ",\"sim\":{\"window_s\":" << num(r.simWindowSeconds)
       << ",\"samples\":" << n
       << ",\"beyond_p9999\":" << (n - std::min(n, rank9999))
       << ",\"mean_us\":" << num(h.mean())
       << ",\"p50_us\":" << num(h.percentile(50))
       << ",\"p99_us\":" << num(h.percentile(99))
       << ",\"p9999_us\":" << num(h.percentile(99.99))
       << ",\"inflight_start\":" << r.win.inflightStart
       << ",\"issued\":" << r.win.issued
       << ",\"completed\":" << r.win.completed
       << ",\"timeouts\":" << r.win.timeouts << ",\"shed\":" << r.win.shed
       << ",\"inflight_end\":" << r.win.inflightEnd
       << ",\"drained\":" << r.win.drained
       << ",\"stranded\":" << r.win.stranded << "}";
    os << ",\"events\":{\"executed\":" << r.executed
       << ",\"scheduled\":" << r.scheduled
       << ",\"cancelled\":" << r.cancelled << ",\"per_shard\":[";
    for (std::size_t i = 0; i < r.shardEvents.size(); ++i)
        os << (i ? "," : "") << r.shardEvents[i];
    os << "]}";
    os << ",\"window\":" << counterObject(r.atEnd, &r.atStart)
       << ",\"total\":" << counterObject(r.atEnd, nullptr);
    char dig[24];
    std::snprintf(dig, sizeof dig, "%016" PRIx64, r.digest);
    os << ",\"digest\":\"" << dig << "\"}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceStem;
    std::uint64_t seed = 1;
    unsigned shards = 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--workload=", 11) == 0)
            workload = arg + 11;
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            seed = std::strtoull(arg + 7, nullptr, 10);
        else if (std::strncmp(arg, "--shards=", 9) == 0)
            shards = unsigned(std::strtoul(arg + 9, nullptr, 10));
        else if (std::strncmp(arg, "--trace-out=", 12) == 0)
            traceStem = arg + 12;
        else
            die("unknown argument %s", arg);
    }
    if (workload.empty())
        die("%s", "--workload=NAME is required");
    Workload wl = workloadByName(workload);
    bool sharded = wl.name == "sharded_kv";
    if (shards == 0)
        shards = sharded ? 2 : 1;
    if (shards > kPartitions || (!sharded && shards != 1))
        die("bad --shards for %s", wl.name.c_str());
    bool traced = !traceStem.empty();

    Result r;
    if (sharded) {
        runSharded(wl, seed, shards, traced, r);
    } else {
        auto eq = std::make_unique<sim::EventQueue>();
        load::PoolConfig pc = poolConfig(wl, seed);
        if (wl.name == "eth_memcached") {
            auto w = std::make_unique<EthWorld>(*eq, wl, pc, r.setup);
            runSingleQueue(std::move(eq), std::move(w), wl, traceStem, r);
        } else {
            auto w = std::make_unique<IbKvWorld>(*eq, wl, pc, r.setup);
            runSingleQueue(std::move(eq), std::move(w), wl, traceStem, r);
        }
    }
    if (traced)
        writeHostTrace(traceStem + ".host.json", r);
    printResult(wl, seed, shards, traced, r);
    return 0;
}
