/**
 * @file
 * Allocation-count tests for the hot paths and for object teardown.
 *
 * - The scratch-buffer overloads of autocorrelationSumsFft and
 *   autocorrelogramFft allocate nothing once their buffers have
 *   reached capacity (one warm-up call).
 * - IncrementalAutocorrelation's storage is sized by its lag range
 *   until samples arrive, not by its window capacity.
 * - The event queue and a machine's context steps allocate nothing in
 *   steady state.
 * - Tearing down a machine and its CC-Auditor frees every allocation
 *   the cache monitors made.
 *
 * This binary replaces the global operator new/delete with counting
 * versions and asserts exactly that — which is why it is its own test
 * executable rather than part of test_util.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "auditor/cc_auditor.hh"
#include "detect/autocorrelation.hh"
#include "detect/incremental_autocorr.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "util/fft.hh"
#include "util/rng.hh"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_bytes{0};

void*
countedAlloc(std::size_t size)
{
    ++g_allocations;
    g_bytes += size;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
countedFree(void* p) noexcept
{
    if (p)
        ++g_frees;
    std::free(p);
}

/** Allocations not yet freed. */
std::uint64_t
liveAllocations()
{
    return g_allocations.load() - g_frees.load();
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    countedFree(p);
}

void
operator delete[](void* p) noexcept
{
    countedFree(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    countedFree(p);
}

namespace cchunter
{
namespace
{

std::vector<double>
binarySeries(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<double> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.nextDouble() < 0.5 ? 0.0 : 1.0);
    return s;
}

TEST(AllocCountTest, CounterSeesOrdinaryAllocations)
{
    const std::uint64_t before = g_allocations.load();
    auto* v = new std::vector<double>(1000, 1.0);
    EXPECT_GT(g_allocations.load(), before);
    delete v;
}

TEST(AllocCountTest, AutocorrelationSumsSteadyStateAllocatesNothing)
{
    const auto x = binarySeries(71, 4096);
    const std::size_t max_lag = 256;

    FftScratch scratch;
    std::vector<double> out;
    // Warm-up: grows the scratch buffers and the thread-local plan
    // cache for this transform size.
    autocorrelationSumsFft(x.data(), x.size(), max_lag, scratch, out);

    const std::uint64_t before = g_allocations.load();
    for (int round = 0; round < 16; ++round)
        autocorrelationSumsFft(x.data(), x.size(), max_lag, scratch,
                               out);
    EXPECT_EQ(g_allocations.load(), before)
        << "steady-state transform allocated";
}

TEST(AllocCountTest, AutocorrelogramSteadyStateAllocatesNothing)
{
    const auto x = binarySeries(72, 4096);
    const std::size_t max_lag = 256;

    FftScratch scratch;
    std::vector<double> out;
    autocorrelogramFft(x, max_lag, scratch, out);

    const std::uint64_t before = g_allocations.load();
    for (int round = 0; round < 16; ++round)
        autocorrelogramFft(x, max_lag, scratch, out);
    EXPECT_EQ(g_allocations.load(), before)
        << "steady-state correlogram allocated";
}

TEST(AllocCountTest, SmallerWindowsReuseTheGrownScratch)
{
    // After warming up with the largest window, shorter windows (and
    // shorter lags) of the same padded size class must also run
    // allocation-free — the per-slot audit path shrinks, never grows.
    const auto large = binarySeries(73, 4096);
    const auto small = binarySeries(74, 3000);

    FftScratch scratch;
    std::vector<double> out;
    autocorrelogramFft(large, 256, scratch, out);
    autocorrelogramFft(small, 128, scratch, out);

    const std::uint64_t before = g_allocations.load();
    for (int round = 0; round < 8; ++round) {
        autocorrelogramFft(large, 256, scratch, out);
        autocorrelogramFft(small, 128, scratch, out);
    }
    EXPECT_EQ(g_allocations.load(), before)
        << "mixed-window steady state allocated";
}

TEST(AllocCountTest, IncrementalAutocorrSizedByLagNotCapacity)
{
    // The daemon sizes one maintainer per conflict slot for a 2^20
    // sample window; a short audit must not pay for that window.
    const std::size_t max_lag = 64;
    const std::uint64_t before = g_bytes.load();
    IncrementalAutocorrelation inc(max_lag, std::size_t{1} << 20);
    EXPECT_LE(g_bytes.load() - before, 4 * (max_lag + 1) * sizeof(double))
        << "construction allocated for the whole window";

    // Storage then grows with the samples actually pushed.
    for (int i = 0; i < 1000; ++i)
        inc.push(i % 3 == 0 ? 1.0 : 0.0);
    EXPECT_LE(g_bytes.load() - before,
              4 * (max_lag + 1) * sizeof(double) +
                  4 * 1000 * sizeof(double));
}

TEST(AllocCountTest, IncrementalAutocorrFullRingAllocatesNothing)
{
    IncrementalAutocorrelation inc(16, 100);
    for (int i = 0; i < 100; ++i)
        inc.push(i % 2);
    std::vector<double> out;
    inc.correlogram(16, out);

    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 1000; ++i)
        inc.push(i % 5 == 0 ? 1.0 : 0.0);
    inc.correlogram(16, out);
    EXPECT_EQ(g_allocations.load(), before)
        << "pushing into a full ring allocated";
}

/** Handler shaped like Machine's step event: an object pointer and
 *  one packed word. */
void
addKey(void* sink, std::uint64_t key)
{
    *static_cast<std::uint64_t*>(sink) += key;
}

TEST(AllocCountTest, EventQueueSteadyStateAllocatesNothing)
{
    std::uint64_t fired = 0;
    const std::uint64_t key = 7;

    EventQueue eq;
    // Warm-up grows the heap's storage to its working size.
    for (Tick t = 0; t < 64; ++t)
        eq.schedule(t, addKey, &fired, key);
    eq.runUntil(64);

    const std::uint64_t before = g_allocations.load();
    for (int round = 0; round < 100; ++round) {
        for (Tick t = 0; t < 64; ++t)
            eq.schedule(eq.now() + t, addKey, &fired, key);
        while (eq.step()) {
        }
    }
    EXPECT_EQ(g_allocations.load(), before)
        << "scheduling or stepping an event allocated";
    EXPECT_EQ(fired, 101u * 64u * key);
}

/** Compute-only workload: steps exercise only the event loop. */
class SpinWorkload : public Workload
{
  public:
    Action
    nextAction(const ExecView&) override
    {
        return Action::compute(100);
    }

    std::string name() const override { return "spin"; }
};

MachineParams
smallMachine()
{
    MachineParams p;
    p.mem.l1 = CacheGeometry{1024, 2, 64};
    p.mem.l2 = CacheGeometry{4096, 2, 64};
    p.scheduler.quantum = 1000000;
    return p;
}

TEST(AllocCountTest, MachineStepsAllocateNothingWithinAQuantum)
{
    Machine m(smallMachine());
    m.addProcess(std::make_unique<SpinWorkload>(), 0);
    m.addProcess(std::make_unique<SpinWorkload>(), 1);
    m.runQuanta(1);

    const std::uint64_t quanta = m.scheduler().quantaElapsed();
    const std::uint64_t before = g_allocations.load();
    // 2 contexts x 100-cycle steps: 2000 steps stay inside the
    // 1M-cycle quantum, so no scheduler boundary runs.
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(m.eventQueue().step());
    EXPECT_EQ(g_allocations.load(), before)
        << "a context step allocated";
    EXPECT_EQ(m.scheduler().quantaElapsed(), quanta);
}

/** Streams through twice the L2's capacity so both cache monitors see
 *  conflict misses. */
class ThrashWorkload : public Workload
{
  public:
    Action
    nextAction(const ExecView&) override
    {
        next_ = (next_ + 64) % (2 * 4096);
        return Action::read(0x100000 + next_);
    }

    std::string name() const override { return "thrash"; }

  private:
    Addr next_ = 0;
};

void
auditCacheSlotsAndTearDown()
{
    Machine m(smallMachine());
    CCAuditor auditor(m, 2);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorCache(key, 0, /*core=*/0, ConflictTrackerParams{});
    auditor.monitorCacheIdeal(key, 1, /*core=*/1);
    m.addProcess(std::make_unique<ThrashWorkload>(), 0);
    m.addProcess(std::make_unique<ThrashWorkload>(), 1);
    m.addProcess(std::make_unique<ThrashWorkload>(), 2);
    m.addProcess(std::make_unique<ThrashWorkload>(), 3);
    m.runQuanta(2);
    // Reprogramming a slot releases its previous tracker too.
    auditor.monitorCache(key, 0, /*core=*/0, ConflictTrackerParams{});
    m.runQuanta(1);
}

TEST(AllocCountTest, CacheMonitorsFreeEverythingOnTeardown)
{
    // The first round settles any lazily built process-wide state.
    auditCacheSlotsAndTearDown();
    const std::uint64_t live = liveAllocations();
    auditCacheSlotsAndTearDown();
    EXPECT_EQ(liveAllocations(), live)
        << "a cache-monitored slot outlived its machine and auditor";
}

} // namespace
} // namespace cchunter
