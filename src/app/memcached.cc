#include "app/memcached.hh"

#include "obs/attribution.hh"

namespace npf::app {

MemcachedServer::MemcachedServer(sim::EventQueue &eq, KvStore &store,
                                 HostModel &host, MemcachedConfig cfg)
    : eq_(eq), store_(store), host_(host), cfg_(cfg)
{
}

void
MemcachedServer::serve(RpcChannel &ch)
{
    // Attribution lanes: one lane per channel shared by both TCP
    // directions (response-side retransmits stall the client too),
    // parented on one lane for the shared server core.
    obs::Attributor &at = obs::attributor();
    if (at.enabled()) {
        if (attrLane_ < 0)
            attrLane_ = at.openLane("memcached.server");
        int lane = at.openLane("memcached.channel", attrLane_);
        ch.client.setAttrLane(lane);
        ch.server.setAttrLane(lane);
    }

    ch.request.onMessage(
        [this, &ch](std::uint64_t cookie, std::size_t /*len*/) {
            handleRequest(ch, cookie);
        });
}

void
MemcachedServer::handleRequest(RpcChannel &ch, std::uint64_t cookie)
{
    // Serialize on the instance's worker core.
    bool is_set = (cookie & kOpSet) != 0;
    std::uint64_t key = cookie & kKeyMask;

    KvResult kr = is_set ? store_.set(key) : store_.get(key);
    sim::Time cpu = host_.scaled(cfg_.baseOpCpu) + kr.memCost;
    majorFaults_ += kr.majorFaults;

    sim::Time start = std::max(eq_.now(), busyUntil_);
    sim::Time done = start + cpu;
    busyUntil_ = done;
    ++ops_;
    // Shared-resource charge: CPU occupancy on the server-core lane.
    obs::attributor().charge(attrLane_, obs::Phase::Server, cpu);

    eq_.schedule(done, [this, &ch, cookie, kr, is_set] {
        std::uint64_t rsp_cookie = cookie;
        std::size_t rsp_len = cfg_.missReplyBytes;
        if (!is_set && kr.hit) {
            rsp_cookie |= kHitFlag;
            rsp_len = cfg_.valueBytes + 48;
        }
        // The lwIP port copies the value into stack TX buffers (the
        // CPU touch of item memory is charged in kr.memCost), so the
        // NIC DMA-reads warm stack memory, not the item region.
        ch.response.sendMessage(rsp_len, 0, rsp_cookie);
    }, "app.memcached.reply");
}

load::PoolConfig
Memaslap::poolConfig(const MemaslapConfig &cfg, std::size_t channels,
                     std::uint64_t seed)
{
    load::PoolConfig pc;
    pc.clients = std::uint64_t(cfg.window) * channels;
    pc.seed = seed;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Closed;
    pc.workload.keys.kind = load::KeySpec::Kind::Uniform;
    pc.workload.keys.keys = cfg.keys;
    pc.workload.getRatio = cfg.getRatio;
    pc.workload.requestBytes = cfg.requestBytes;
    return pc;
}

Memaslap::Memaslap(sim::EventQueue &eq, std::vector<RpcChannel *> channels,
                   MemaslapConfig cfg, std::uint64_t seed)
    : pool_(eq, poolConfig(cfg, channels.size(), seed))
{
    for (RpcChannel *ch : channels) {
        transports_.emplace_back(*ch);
        transports_.back().connect(pool_);
    }
}

} // namespace npf::app
