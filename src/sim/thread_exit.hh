/**
 * @file
 * Per-thread teardown for lazily created thread_local singletons.
 *
 * Hot-path slabs (tcp segments, fabric parking, NPF breakdowns) and
 * the flow tracer are per-thread singletons created on first use. On
 * the main thread they are leaked on purpose: closures holding refs
 * into them may die in static destruction, in any order. A shard
 * worker, though, has a well-defined end: sim::ShardedEngine destroys
 * the worker's event queue on that worker and then runs this thread's
 * teardown list, so the singletons are freed instead of becoming
 * unreachable at thread exit (which LeakSanitizer reports).
 */

#ifndef NPF_SIM_THREAD_EXIT_HH
#define NPF_SIM_THREAD_EXIT_HH

#include <functional>
#include <utility>
#include <vector>

namespace npf::sim {

/** This thread's pending teardown functions, oldest first. */
inline std::vector<std::function<void()>> &
threadTeardownList()
{
    static thread_local std::vector<std::function<void()>> list;
    return list;
}

/** Register @p fn to run when this thread calls runThreadTeardown(). */
inline void
atThreadTeardown(std::function<void()> fn)
{
    threadTeardownList().push_back(std::move(fn));
}

/**
 * Run this thread's teardown functions, newest first (a singleton
 * created later may refer to an earlier one), and clear the list.
 */
inline void
runThreadTeardown()
{
    auto &list = threadTeardownList();
    while (!list.empty()) {
        std::function<void()> fn = std::move(list.back());
        list.pop_back();
        fn();
    }
}

} // namespace npf::sim

#endif // NPF_SIM_THREAD_EXIT_HH
