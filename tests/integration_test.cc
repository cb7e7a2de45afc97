/**
 * @file
 * Cross-module integration tests: miniature versions of the paper's
 * headline experiments asserting the comparative results (who wins,
 * who fails), plus the implemented future-work extensions, and a
 * check that every event the eth, IB and HPC stacks schedule carries
 * a site label for the event-loop profiler.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/kv_rpc.hh"
#include "app/memcached.hh"
#include "hpc/imb.hh"
#include "ib/queue_pair.hh"
#include "load/client_pool.hh"
#include "net/fabric.hh"
#include "testbed.hh"

using namespace npf;

namespace {

constexpr std::size_t MiB = 1ull << 20;

/** Time to push 10k memcached ops through a fresh (cold) server. */
sim::Time
coldRunTime(eth::RxFaultPolicy policy, std::size_t ring)
{
    test::EthTestbed tb(policy, ring);
    app::HostModel host;
    host.addInstance();
    app::KvStore kv(*tb.serverAs, 32 * MiB, 1024);
    app::MemcachedServer server(tb.eq, kv, host);
    for (std::uint64_t k = 0; k < 1000; ++k)
        kv.set(k);
    std::vector<std::unique_ptr<app::RpcChannel>> chans;
    std::vector<app::RpcChannel *> raw;
    for (std::uint32_t id = 1; id <= 4; ++id) {
        if (!tb.connect(id))
            return 3600 * sim::kSecond;
        chans.push_back(std::make_unique<app::RpcChannel>(
            tb.client->connection(id), tb.server->connection(id)));
        server.serve(*chans.back());
        raw.push_back(chans.back().get());
    }
    app::Memaslap slap(tb.eq, raw, app::MemaslapConfig{0.9, 1000, 4, 64});
    sim::Time start = tb.eq.now();
    slap.start();
    bool ok = tb.eq.runUntilCondition(
        [&] { return slap.transactions() >= 10000; },
        start + 600 * sim::kSecond);
    return ok ? tb.eq.now() - start : 3600 * sim::kSecond;
}

} // namespace

TEST(Integration, Fig4OrderingDropMuchSlowerThanBackupAndPin)
{
    sim::Time drop = coldRunTime(eth::RxFaultPolicy::Drop, 64);
    sim::Time backup = coldRunTime(eth::RxFaultPolicy::BackupRing, 64);
    sim::Time pin = coldRunTime(eth::RxFaultPolicy::Pin, 64);
    EXPECT_GT(drop, 20 * backup)
        << "drop must be dramatically slower on a cold ring";
    EXPECT_LT(double(backup) / double(pin), 2.5)
        << "backup ring's cold cost is tolerable";
}

TEST(Integration, PrefaultAheadShortensColdSequences)
{
    // Count rNPFs taken while warming a cold ring with and without
    // the §3 pre-fault-ahead optimization.
    auto faults_with = [](unsigned ahead) {
        test::EthTestbed tb(eth::RxFaultPolicy::BackupRing, 64);
        eth::RxRing &r = tb.serverNic->ring(0);
        r.cfg.prefaultAhead = ahead;
        auto &cli = tb.client->connection(1);
        auto &srv = tb.server->connection(1);
        srv.listen();
        cli.connect([](bool) {});
        std::uint64_t got = 0;
        srv.onDeliver([&](std::size_t n) { got += n; });
        tb.eq.runUntilCondition([&] { return cli.established(); },
                                120 * sim::kSecond);
        cli.send(256 * 1024);
        tb.eq.runUntilCondition([&] { return got >= 256u * 1024; },
                                tb.eq.now() + 120 * sim::kSecond);
        return tb.server->ringStats().rnpfs;
    };
    std::uint64_t plain = faults_with(0);
    std::uint64_t ahead = faults_with(8);
    EXPECT_GT(plain, 0u);
    EXPECT_LT(ahead, plain)
        << "pre-faulting ahead must absorb faults before packets land";
}

TEST(Integration, ReadRnrExtensionBeatsStandardRewind)
{
    auto run = [](bool extension) {
        struct Out
        {
            sim::Time elapsed;
            std::uint64_t dropped;
        };
        sim::EventQueue eq;
        net::Fabric fabric(
            eq, 2, net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                     200});
        mem::MemoryManager mmA(256 * MiB), mmB(256 * MiB);
        auto &asA = mmA.createAddressSpace("A");
        auto &asB = mmB.createAddressSpace("B");
        core::NpfController npfcA(eq), npfcB(eq);
        auto chA = npfcA.attach(asA);
        auto chB = npfcB.attach(asB);
        ib::QpConfig cfg;
        cfg.readRnrExtension = extension;
        ib::QueuePair qpA(eq, fabric, 0, npfcA, chA, cfg, 1);
        ib::QueuePair qpB(eq, fabric, 1, npfcB, chB, cfg, 2);
        qpA.connect(qpB);
        qpB.connect(qpA);

        mem::VirtAddr remote = asB.allocRegion(MiB);
        npfcB.prefault(chB, remote, MiB, true);
        mem::VirtAddr local = asA.allocRegion(MiB); // cold

        bool done = false;
        qpA.onCompletion([&](const ib::Completion &c) {
            if (!c.isRecv)
                done = true;
        });
        sim::Time start = eq.now();
        qpA.postSend({ib::Opcode::RdmaRead, local, MiB, remote, 1});
        eq.runUntilCondition([&] { return done; }, 60 * sim::kSecond);
        return Out{eq.now() - start, qpA.stats().dataPacketsDropped};
    };
    auto std_rc = run(false);
    auto ext_rc = run(true);
    EXPECT_LT(ext_rc.dropped, std_rc.dropped)
        << "suspending the responder wastes fewer packets";
    EXPECT_LE(ext_rc.elapsed, std_rc.elapsed + sim::kMillisecond);
}

TEST(Integration, OvercommitFeasibility)
{
    // Pinning three 3 GB VMs into 8 GB must fail; NPF must not.
    mem::MemoryManager host(8ull << 30);
    std::vector<mem::AddressSpace *> vms;
    bool pin_ok = true;
    for (int i = 0; i < 3 && pin_ok; ++i) {
        auto &as = host.createAddressSpace("vm" + std::to_string(i));
        mem::VirtAddr r = as.allocRegion(3ull << 30);
        pin_ok = as.pinRange(r, 3ull << 30).ok;
        vms.push_back(&as);
    }
    EXPECT_FALSE(pin_ok) << "Table 5's N/A";

    mem::MemoryManager host2(8ull << 30);
    bool npf_ok = true;
    for (int i = 0; i < 4 && npf_ok; ++i) {
        auto &as = host2.createAddressSpace("vm" + std::to_string(i));
        mem::VirtAddr r = as.allocRegion(3ull << 30);
        // Working set < 2 GB, allocated on demand.
        npf_ok = as.touch(r, 1800ull << 20, true).ok;
    }
    EXPECT_TRUE(npf_ok) << "demand paging packs four VMs";
}

TEST(Integration, DevicePageTableNeverMapsReusedFrames)
{
    // End-to-end protection invariant: after heavy churn with DMA
    // mappings and reclaim, every valid IOMMU PTE still points at a
    // frame owned by the right page of the right address space.
    sim::EventQueue eq;
    mem::MemoryManager mm(16 * MiB);
    auto &a = mm.createAddressSpace("a");
    auto &b = mm.createAddressSpace("b");
    core::NpfController npfc(eq);
    auto cha = npfc.attach(a);
    auto chb = npfc.attach(b);
    mem::VirtAddr ra = a.allocRegion(32 * MiB);
    mem::VirtAddr rb = b.allocRegion(32 * MiB);

    sim::Rng rng(77);
    for (int step = 0; step < 3000; ++step) {
        bool use_a = rng.bernoulli(0.5);
        auto ch = use_a ? cha : chb;
        mem::AddressSpace &as = use_a ? a : b;
        mem::VirtAddr base = use_a ? ra : rb;
        mem::VirtAddr addr =
            base + rng.uniformInt(0, 8000) * mem::kPageSize;
        if (rng.bernoulli(0.7))
            npfc.prefault(ch, addr, mem::kPageSize, true);
        else
            as.touch(addr, mem::kPageSize, true);
    }
    // Verify the invariant for both channels.
    for (auto [ch, asp, base] :
         {std::tuple{cha, &a, ra}, std::tuple{chb, &b, rb}}) {
        for (std::uint64_t i = 0; i < 8001; ++i) {
            mem::Vpn vpn = mem::pageOf(base) + i;
            auto mapped = npfc.iommu(ch).pageTable().lookup(vpn);
            if (!mapped)
                continue;
            const mem::Pte *pte = asp->findPte(vpn);
            ASSERT_NE(pte, nullptr);
            ASSERT_TRUE(pte->present)
                << "IOMMU maps a non-resident page";
            ASSERT_EQ(*mapped, pte->pfn)
                << "IOMMU maps a stale frame";
            const mem::Frame &f = mm.physical().frame(pte->pfn);
            ASSERT_EQ(f.owner, asp);
            ASSERT_EQ(f.vpn, vpn);
        }
    }
}

TEST(Integration, StreamUnderSyntheticFaultsBackupBeatsDrop)
{
    auto throughput = [](eth::RxFaultPolicy policy) {
        test::EthTestbed tb(policy, 256);
        eth::RxRing &r = tb.serverNic->ring(0);
        r.cfg.syntheticRnpfProb = 1.0 / 1024.0;
        tb.serverNic->npfc().prefault(
            0, 0, 0, false); // no-op; ring buffers warm below
        // Warm the ring by pre-faulting through the endpoint config
        // path isn't exposed here; just run long enough to warm.
        if (!tb.connect(1))
            return 0.0;
        auto &cli = tb.client->connection(1);
        auto &srv = tb.server->connection(1);
        std::uint64_t got = 0;
        srv.onDeliver([&](std::size_t n) { got += n; });
        cli.send(8 * MiB);
        tb.eq.runUntilCondition([&] { return got >= 8 * MiB; },
                                tb.eq.now() + 120 * sim::kSecond);
        return double(got) / sim::toSeconds(tb.eq.now());
    };
    double backup = throughput(eth::RxFaultPolicy::BackupRing);
    double drop = throughput(eth::RxFaultPolicy::Drop);
    EXPECT_GT(backup, 1.5 * drop)
        << "Fig. 10: the backup ring sustains throughput under "
           "faults that cripple dropping";
}

// --- event-site labels --------------------------------------------------

namespace {

/** Every profiled event must carry a non-empty schedule-site label
 *  (unlabeled events land on the profiler's "" entry). */
void
expectEveryEventLabelled(const sim::EventQueue &eq)
{
    ASSERT_FALSE(eq.siteProfiles().empty());
    std::string seen;
    for (const auto &[site, prof] : eq.siteProfiles())
        seen += std::string(" ") + site;
    for (const auto &[site, prof] : eq.siteProfiles())
        EXPECT_NE(site[0], '\0')
            << prof.count << " unlabeled events; sites:" << seen;
}

} // namespace

TEST(EventSites, EthMemcachedEventsAreAllLabelled)
{
    // Cold server ring with the backup ring: TCP, eth NIC, backup-ring
    // resolver, link and memcached reply events all fire.
    test::EthTestbed tb(eth::RxFaultPolicy::BackupRing, 256);
    tb.eq.enableProfile(true);
    app::HostModel host;
    host.addInstance();
    app::KvStore kv(*tb.serverAs, 32 * MiB, 1024);
    app::MemcachedServer server(tb.eq, kv, host);
    for (std::uint64_t k = 0; k < 500; ++k)
        kv.set(k);
    ASSERT_TRUE(tb.connect(1));
    app::RpcChannel ch(tb.client->connection(1), tb.server->connection(1));
    server.serve(ch);
    app::Memaslap slap(tb.eq, {&ch}, app::MemaslapConfig{0.9, 500, 4, 64});
    slap.start();
    tb.eq.runUntilCondition([&] { return slap.transactions() >= 2000; },
                            tb.eq.now() + 120 * sim::kSecond);
    EXPECT_GE(slap.transactions(), 2000u);
    expectEveryEventLabelled(tb.eq);
}

TEST(EventSites, IbKvRpcEventsAreAllLabelled)
{
    // Open-loop pool over the zero-copy KV RPC on RC QPs through the
    // legacy star fabric, with cold value pages (send-side NPFs) and
    // a request timeout long enough to never fire (pool sweep).
    sim::EventQueue eq;
    eq.enableProfile(true);
    net::Fabric fabric{eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200}};
    mem::MemoryManager serverMm{2ull << 30}, clientMm{2ull << 30};
    mem::AddressSpace &serverAs = serverMm.createAddressSpace("srv");
    mem::AddressSpace &clientAs = clientMm.createAddressSpace("cli");
    core::NpfController serverNpfc{eq}, clientNpfc{eq};
    core::ChannelId sch = serverNpfc.attach(serverAs);
    core::ChannelId cch = clientNpfc.attach(clientAs);

    app::HostModel host;
    host.addInstance();
    app::KvStore kv(serverAs, 256 * MiB, 1024);
    app::KvRcServer server(eq, kv, host, serverAs);
    for (std::uint64_t k = 0; k < 500; ++k)
        kv.set(k);

    load::PoolConfig pc;
    pc.clients = 200;
    pc.seed = 23;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = 50e3;
    pc.workload.keys.kind = load::KeySpec::Kind::Zipf;
    pc.workload.keys.keys = 500;
    pc.timeout = 50 * sim::kMillisecond;
    load::ClientPool pool(eq, pc);

    ib::QueuePair qpS(eq, fabric, 0, serverNpfc, sch);
    ib::QueuePair qpC(eq, fabric, 1, clientNpfc, cch);
    qpS.connect(qpC);
    qpC.connect(qpS);
    auto reqs = std::make_shared<sim::RingDeque<app::KvRpcRequest>>();
    auto rsps = std::make_shared<sim::RingDeque<app::KvRpcResponse>>();
    server.addSession(qpS, reqs, rsps);
    app::KvRcTransport t(qpC, clientAs, reqs, rsps, {});
    t.connect(pool);

    pool.start();
    eq.runUntil(20 * sim::kMillisecond);
    pool.stop();
    EXPECT_GT(pool.completions(), 500u);
    EXPECT_EQ(pool.timeouts(), 0u);
    EXPECT_GT(qpS.stats().sendNpfs, 0u);
    expectEveryEventLabelled(eq);
}

TEST(EventSites, HpcClusterEventsAreAllLabelled)
{
    // Rendezvous sends under per-IO NP-RDMA mapping (pre-post and
    // unmap delays), eager copies, and an allreduce's reductions.
    sim::EventQueue eq;
    eq.enableProfile(true);
    hpc::ClusterConfig cfg;
    cfg.ranks = 4;
    cfg.memoryPerRank = 1ull << 30;
    hpc::Cluster c(eq, cfg, hpc::RegMode::NpRdma);
    mem::VirtAddr s = c.allocBuffer(0, 1 << 20);
    mem::VirtAddr r = c.allocBuffer(1, 1 << 20);
    int done = 0;
    c.irecv(1, 0, r, 1 << 20, [&] { ++done; });
    c.isend(0, 1, s, 1 << 20, [&] { ++done; });
    c.irecv(1, 0, r, 4096, [&] { ++done; });
    c.isend(0, 1, s, 4096, [&] { ++done; });
    eq.runUntilCondition([&] { return done == 4; }, 10 * sim::kSecond);
    EXPECT_EQ(done, 4);
    EXPECT_GT(hpc::runImb(c, hpc::ImbBenchmark::Allreduce, 64 * 1024, 2, 1),
              0.0);
    expectEveryEventLabelled(eq);
}
