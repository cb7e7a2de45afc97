#include "hpc/collectives.hh"

#include <cassert>

namespace npf::hpc {

BufferPool::BufferPool(Cluster &c, std::size_t max_bytes, unsigned depth)
{
    sbuf_.resize(c.ranks());
    rbuf_.resize(c.ranks());
    for (unsigned r = 0; r < c.ranks(); ++r) {
        for (unsigned d = 0; d < depth; ++d) {
            sbuf_[r].push_back(c.allocBuffer(r, max_bytes));
            rbuf_[r].push_back(c.allocBuffer(r, max_bytes));
        }
    }
}

void
Collectives::finish(const std::shared_ptr<Counter> &ctr)
{
    if (--ctr->pending == 0 && ctr->done)
        ctr->done();
}

void
Collectives::sendrecv(std::size_t len, unsigned iter, Done done)
{
    unsigned n = c_.ranks();
    auto ctr = std::make_shared<Counter>();
    ctr->pending = static_cast<int>(2 * n);
    ctr->done = std::move(done);
    for (unsigned r = 0; r < n; ++r) {
        unsigned right = (r + 1) % n;
        unsigned left = (r + n - 1) % n;
        c_.isend(r, right, pool_.send(r, iter), len,
                 [ctr] { finish(ctr); });
        c_.irecv(r, left, pool_.recv(r, iter), len,
                 [ctr] { finish(ctr); });
    }
}

void
Collectives::bcast(std::size_t len, unsigned iter, Done done)
{
    unsigned n = c_.ranks();
    if (n == 1) {
        done();
        return;
    }
    // Sequential binomial rounds: in round with mask m, ranks < m
    // forward to rank + m.
    // Weak self-capture: a strong one would form a shared_ptr cycle
    // and leak the closure. Callers (the stack variable and the
    // completion counters) hold strong references, so lock() always
    // succeeds.
    auto round = std::make_shared<std::function<void(unsigned)>>();
    *round = [this, len, iter, n, wr = std::weak_ptr(round),
              done = std::move(done)](unsigned mask) mutable {
        if (mask >= n) {
            done();
            return;
        }
        auto round = wr.lock();
        auto ctr = std::make_shared<Counter>();
        ctr->done = [round, mask] { (*round)(mask << 1); };
        int pairs = 0;
        for (unsigned r = 0; r < n; ++r) {
            if (r < mask && r + mask < n)
                ++pairs;
        }
        if (pairs == 0) {
            (*round)(mask << 1);
            return;
        }
        ctr->pending = 2 * pairs;
        for (unsigned r = 0; r < n; ++r) {
            if (r >= mask || r + mask >= n)
                continue;
            unsigned dst = r + mask;
            // Non-root senders forward out of their receive buffer.
            mem::VirtAddr src_buf =
                r == 0 ? pool_.send(0, iter) : pool_.recv(r, iter);
            c_.isend(r, dst, src_buf, len, [ctr] { finish(ctr); });
            c_.irecv(dst, r, pool_.recv(dst, iter), len,
                     [ctr] { finish(ctr); });
        }
    };
    (*round)(1);
}

void
Collectives::alltoall(std::size_t len, unsigned iter, Done done)
{
    unsigned n = c_.ranks();
    if (n == 1) {
        done();
        return;
    }
    // Pairwise XOR exchange, one step at a time.
    // Weak self-capture: see bcast.
    auto step = std::make_shared<std::function<void(unsigned)>>();
    *step = [this, len, iter, n, ws = std::weak_ptr(step),
             done = std::move(done)](unsigned s) mutable {
        if (s >= n) {
            done();
            return;
        }
        auto step = ws.lock();
        auto ctr = std::make_shared<Counter>();
        ctr->done = [step, s] { (*step)(s + 1); };
        int ops = 0;
        for (unsigned r = 0; r < n; ++r) {
            if ((r ^ s) < n)
                ops += 2;
        }
        if (ops == 0) {
            (*step)(s + 1);
            return;
        }
        ctr->pending = ops;
        for (unsigned r = 0; r < n; ++r) {
            unsigned partner = r ^ s;
            if (partner >= n)
                continue;
            c_.isend(r, partner, pool_.send(r, iter), len,
                     [ctr] { finish(ctr); });
            c_.irecv(r, partner, pool_.recv(r, iter), len,
                     [ctr] { finish(ctr); });
        }
    };
    (*step)(1);
}

void
Collectives::allreduce(std::size_t len, unsigned iter, Done done)
{
    unsigned n = c_.ranks();
    if (n == 1) {
        done();
        return;
    }
    // Recursive doubling; each round ends with a CPU reduction, so
    // the data passes through the CPU cache in every mode — which is
    // why allreduce shows little copy-vs-zero-copy difference (§6.2).
    // Weak self-capture: see bcast.
    auto round = std::make_shared<std::function<void(unsigned)>>();
    *round = [this, len, iter, n, wr = std::weak_ptr(round),
              done = std::move(done)](unsigned mask) mutable {
        if (mask >= n) {
            done();
            return;
        }
        auto round = wr.lock();
        auto ctr = std::make_shared<Counter>();
        ctr->done = [this, round, mask, len] {
            // All ranks reduce in parallel: one reduction latency.
            c_.eventQueue().scheduleAfter(
                c_.reduceCost(len), [round, mask] { (*round)(mask << 1); },
                "hpc.allreduce.reduce");
        };
        int ops = 0;
        for (unsigned r = 0; r < n; ++r) {
            if ((r ^ mask) < n)
                ops += 2;
        }
        ctr->pending = ops;
        for (unsigned r = 0; r < n; ++r) {
            unsigned partner = r ^ mask;
            if (partner >= n)
                continue;
            c_.isend(r, partner, pool_.send(r, iter), len,
                     [ctr] { finish(ctr); });
            c_.irecv(r, partner, pool_.recv(r, iter), len,
                     [ctr] { finish(ctr); });
        }
    };
    (*round)(1);
}

} // namespace npf::hpc
