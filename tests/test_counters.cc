/**
 * @file
 * Deterministic cost counters: the engine events and heap allocations
 * of the smoke cells (scale 8, duration 0.05), checked against
 * tests/data/counters.golden. Both are pure functions of the job, so
 * unlike host time they gate on any machine. A count that grows past
 * kFailFactor times its golden value fails: `events` prices the MSHR
 * wake-list discipline (a return toward retry polling multiplies it),
 * `allocations` the allocation discipline of DESIGN.md section 9 (a
 * callable too big for EventFn's inline buffer boxes once per event).
 * Each cell is its own TEST, so ctest runs them in parallel and a
 * failure names its cell and prints the measured golden line.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>

#include "common/config.hh"
#include "common/domain_engine.hh"
#include "common/event_queue.hh"
#include "core/simulator.hh"
#include "gpu/sm.hh"
#include "interconnect/link.hh"
#include "workloads/suite.hh"

// ---- allocation accounting -------------------------------------------
//
// Replacing the throwing global allocators in this TU rebinds every
// new/delete in the whole test binary (the nothrow and aligned
// non-throwing forms forward to these), so a test can count the heap
// allocations a call makes. The simulator libraries carry no hook.
// delete stays count-free: the figure is allocation traffic.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

// noinline keeps the replacements opaque at call sites; otherwise GCC
// inlines the free() into callers and raises a false-positive
// -Wmismatched-new-delete against the (not inlined) operator new.
#if defined(__GNUC__)
#define CARVE_ALLOC_FN __attribute__((noinline))
#else
#define CARVE_ALLOC_FN
#endif

CARVE_ALLOC_FN void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

CARVE_ALLOC_FN void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

CARVE_ALLOC_FN void *
operator new(std::size_t size, std::align_val_t al)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    std::size_t a = static_cast<std::size_t>(al);
    if (a < sizeof(void *))
        a = sizeof(void *);
    if (posix_memalign(&p, a, size ? size : a) != 0)
        throw std::bad_alloc();
    return p;
}

CARVE_ALLOC_FN void *
operator new[](std::size_t size, std::align_val_t al)
{
    return ::operator new(size, al);
}

CARVE_ALLOC_FN void
operator delete(void *p) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace carve {
namespace {

/** A counter may grow to this multiple of its golden value. */
constexpr double kFailFactor = 2.0;

/** Heap allocations made while @p fn runs. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&fn)
{
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    fn();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t allocations = 0;
};

/** The golden counters of @p cell, if the golden file has a line for
 * it ("<cell> <events> <allocations>"; '#' starts a comment line). */
std::optional<Counters>
goldenFor(const std::string &cell)
{
    std::ifstream in(CARVE_COUNTERS_GOLDEN);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        Counters c;
        if (fields >> name >> c.events >> c.allocations && name == cell)
            return c;
    }
    return std::nullopt;
}

/** @p preset on suite workload @p workload as a smoke cell: scale 8,
 * duration 0.05, no line profiling. */
SimJob
smokeJob(Preset preset, const std::string &workload)
{
    SuiteOptions suite;
    suite.memory_scale = 8;
    suite.duration = 0.05;
    RunOptions opts;
    opts.profile_lines = false;
    opts.max_cycles = 1'000'000'000;
    return makePresetJob(preset, SystemConfig{}.scaled(suite.memory_scale),
                         suiteWorkload(workload, suite), opts);
}

/** Run @p job and check its counters against the golden line of its
 * cell, "<preset label>/<workload>". */
void
expectWithinGolden(const SimJob &job)
{
    SimResult r;
    const std::uint64_t allocations =
        allocationsDuring([&] { r = run(job); });

    const std::string cell = job.preset_label + "/" + job.workload.name;
    const std::string measured = cell + " " + std::to_string(r.events) +
        " " + std::to_string(allocations);
    const std::optional<Counters> golden = goldenFor(cell);
    ASSERT_TRUE(golden) << "no line for " << cell << " in "
                        << CARVE_COUNTERS_GOLDEN << "; measured:\n"
                        << measured;
    const auto within = [](std::uint64_t value, std::uint64_t bound) {
        return static_cast<double>(value) <=
            kFailFactor * static_cast<double>(bound);
    };
    EXPECT_TRUE(within(r.events, golden->events))
        << cell << ": events grew past " << kFailFactor
        << "x the golden " << golden->events << "; measured:\n"
        << measured;
    EXPECT_TRUE(within(allocations, golden->allocations))
        << cell << ": allocations grew past " << kFailFactor
        << "x the golden " << golden->allocations << "; measured:\n"
        << measured;
}

TEST(Counters, NumaGpuLulesh)
{
    expectWithinGolden(smokeJob(Preset::NumaGpu, "Lulesh"));
}

TEST(Counters, CarveHwcLulesh)
{
    expectWithinGolden(smokeJob(Preset::CarveHwc, "Lulesh"));
}

TEST(Counters, NumaGpuXSBench)
{
    expectWithinGolden(smokeJob(Preset::NumaGpu, "XSBench"));
}

TEST(Counters, CarveHwcXSBench)
{
    expectWithinGolden(smokeJob(Preset::CarveHwc, "XSBench"));
}

/** Every trace category recorded into the in-memory ring. */
TEST(Counters, NumaGpuTraceOnLulesh)
{
    SimJob job = smokeJob(Preset::NumaGpu, "Lulesh");
    job.preset_label += "+trace-on";
    job.options.trace.enabled = true;
    expectWithinGolden(job);
}

/** Every latency histogram armed, no host timing. */
TEST(Counters, NumaGpuTelemetryOnLulesh)
{
    SimJob job = smokeJob(Preset::NumaGpu, "Lulesh");
    job.preset_label += "+telem-on";
    job.options.telemetry.enabled = true;
    expectWithinGolden(job);
}

/** Tiny L1/L2 MSHR files keep the wake-lists hot for the whole run. */
TEST(Counters, NumaGpuMshrSaturatedLulesh)
{
    SimJob job = smokeJob(Preset::NumaGpu, "Lulesh");
    job.preset_label += "+mshr-sat";
    job.config.l1.mshrs = 4;
    job.config.l2.mshrs = 8;
    expectWithinGolden(job);
}

/** Every audit invariant armed: each link packet carries a token. */
TEST(Counters, NumaGpuAuditLulesh)
{
    SimJob job = smokeJob(Preset::NumaGpu, "Lulesh");
    job.preset_label += "+audit";
    job.options.audit = true;
    expectWithinGolden(job);
}

// ---- steady state allocates nothing ----------------------------------

/** CTAs of two warps that retire at their first issue. */
class EmptyCtas : public Workload
{
  public:
    const std::string &name() const override { return name_; }
    unsigned numKernels() const override { return 1; }
    std::uint64_t numCtas(KernelId) const override { return 1; }
    unsigned warpsPerCta() const override { return 2; }
    std::uint64_t instsPerWarp(KernelId) const override { return 0; }
    void
    instruction(KernelId, CtaId, WarpId, std::uint64_t,
                WarpInstruction &) const override
    {
    }

  private:
    std::string name_ = "empty";
};

/** The SM's owner, reduced to counting retired CTAs. */
struct CountingPort : Sm::Port
{
    void accessFromSm(Addr, AccessType, Sm::Callback) override {}
    void recordAccess(Addr, AccessType) override {}
    Cycle translate(SmId, Addr) override { return 0; }
    void onCtaRetired(SmId, CtaId) override { ++retired; }

    unsigned retired = 0;
};

TEST(Counters, CtaChurnOnOneSmAllocatesNothing)
{
    EventQueue eq;
    const SystemConfig cfg;
    const EmptyCtas wl;
    CountingPort port;
    Sm sm(eq, cfg, 0, wl, port);
    CtaId next = 0;
    const auto churn = [&](unsigned ctas) {
        for (unsigned i = 0; i < ctas; ++i) {
            ASSERT_TRUE(sm.tryStartCta(0, next++));
            eq.run();
        }
    };
    churn(16);  // warm-up
    EXPECT_EQ(allocationsDuring([&] { churn(1000); }), 0u);
    EXPECT_EQ(port.retired, 1016u);
}

TEST(Counters, AuditedLinkSendsAllocateNothing)
{
    DomainEngine eng(1, 101, SimEngine::Serial, 1);
    Link link(eng, 0, "l", 64.0, 100);
    audit::InflightTracker tracker;
    link.instrument(nullptr, 0, false, &tracker);
    unsigned delivered = 0;
    const auto sendAll = [&] {
        for (unsigned i = 0; i < 1000; ++i)
            link.send(128, [&delivered] { ++delivered; });
    };
    sendAll();  // warm-up
    eng.run(DomainEngine::Hooks{});
    EXPECT_EQ(allocationsDuring(sendAll), 0u);
    eng.run(DomainEngine::Hooks{});
    EXPECT_EQ(delivered, 2000u);
    tracker.foldShards();
    EXPECT_EQ(tracker.inflight(audit::Boundary::LinkDelivery), 0u);
}

} // namespace
} // namespace carve
