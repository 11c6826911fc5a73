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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/imst.hh"
#include "common/config.hh"
#include "common/domain_engine.hh"
#include "common/event_queue.hh"
#include "common/flat_table.hh"
#include "common/ring.hh"
#include "core/simulator.hh"
#include "dramcache/alloy_cache.hh"
#include "gpu/sm.hh"
#include "interconnect/link.hh"
#include "mem/memory_controller.hh"
#include "numa/page_manager.hh"
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
 * duration @p duration (0.05 for the golden cells), no line
 * profiling. */
SimJob
smokeJob(Preset preset, const std::string &workload,
         double duration = 0.05)
{
    SuiteOptions suite;
    suite.memory_scale = 8;
    suite.duration = duration;
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

/** Events and heap allocations of one run of @p job. */
Counters
runCounters(const SimJob &job)
{
    Counters c;
    c.allocations = allocationsDuring([&] { c.events = run(job).events; });
    return c;
}

/** A longer trace adds events, not allocations: every per-access
 * structure reaches its working size early in the run. */
void
expectDoublingAddsNoAllocations(Preset preset)
{
    constexpr std::uint64_t kSlack = 64;
    const Counters base = runCounters(smokeJob(preset, "XSBench", 0.1));
    const Counters doubled =
        runCounters(smokeJob(preset, "XSBench", 0.2));
    EXPECT_GT(doubled.events, base.events + base.events / 2);
    EXPECT_LE(doubled.allocations, base.allocations + kSlack)
        << presetName(preset) << "/XSBench: duration 0.1 made "
        << base.allocations << " allocations, 0.2 made "
        << doubled.allocations;
}

TEST(Counters, NumaGpuLongerTraceAddsNoAllocations)
{
    expectDoublingAddsNoAllocations(Preset::NumaGpu);
}

TEST(Counters, CarveHwcLongerTraceAddsNoAllocations)
{
    expectDoublingAddsNoAllocations(Preset::CarveHwc);
}

TEST(Counters, ImstRetouchAllocatesNothing)
{
    Imst imst(0, 0.5);
    bool inval = false;
    const auto touch = [&] {
        for (Addr line = 0; line < 4096; ++line) {
            imst.onAccess(line * 128, static_cast<NodeId>(line % 3),
                          line % 5 == 0 ? AccessType::Write
                                        : AccessType::Read,
                          inval);
        }
    };
    touch();  // warm-up: every line tracked
    EXPECT_EQ(allocationsDuring(touch), 0u);
    EXPECT_EQ(imst.trackedLines(), 4096u);
}

TEST(Counters, AlloyHeldSetsAllocateNothing)
{
    constexpr std::uint64_t kSets = 1024;
    AlloyCache rdc(kSets * 128 * 64, 128);
    const auto fill = [&](Addr base) {
        for (std::uint64_t set = 0; set < kSets; ++set) {
            const Addr line = base + set * 128;
            if (rdc.lookup(line, 0) != RdcLookup::Hit)
                rdc.insert(line, 0, set % 2 == 0, 1);
        }
    };
    fill(0);  // warm-up: every set held
    // Hits, then conflicting tags that displace the held lines.
    const Addr conflict = rdc.numSets() * 128;
    EXPECT_EQ(allocationsDuring([&] {
                  fill(0);
                  fill(conflict);
              }),
              0u);
    EXPECT_EQ(rdc.touchedSets(), kSets);
    EXPECT_EQ(rdc.conflictEvictions(), kSets);
}

TEST(Counters, PageManagerRepeatedWindowsAllocateNothing)
{
    const SystemConfig cfg = SystemConfig{}.scaled(8);
    PageManager pm(cfg);
    Cycle tick = 0;
    const auto windows = [&](unsigned n) {
        for (unsigned w = 0; w < n; ++w) {
            for (unsigned i = 0; i < 256; ++i) {
                const auto gpu = static_cast<NodeId>(i % cfg.num_gpus);
                const Addr addr = (i % 32) * cfg.page_size + i * 128;
                const AccessType type =
                    i % 7 == 0 ? AccessType::Write : AccessType::Read;
                engine_ctx::current_shard = gpu;
                pm.recordAccess(addr, gpu, type, tick);
                (void)pm.route(addr, gpu, type, tick);
                ++tick;
            }
            engine_ctx::current_shard = engine_ctx::barrier_shard;
            pm.commitWindow(tick);
        }
    };
    windows(4);  // warm-up: pages committed, overlays at working size
    EXPECT_EQ(allocationsDuring([&] { windows(16); }), 0u);
    EXPECT_EQ(pm.firstTouches(), 32u);
}

TEST(Counters, MemoryControllerStagedStreamAllocatesNothing)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.dram.channels = 2;
    cfg.dram.read_queue = 4;
    cfg.dram.write_queue = 4;
    MemoryController mc(eq, cfg);
    const auto stream = [&] {
        for (unsigned i = 0; i < 512; ++i) {
            mc.access(static_cast<Addr>(i) * cfg.line_size,
                      i % 3 == 0 ? AccessType::Write : AccessType::Read,
                      {});
        }
        eq.run();
    };
    stream();  // warm-up: queues and staging at their high-water mark
    EXPECT_EQ(allocationsDuring(stream), 0u);
    EXPECT_EQ(mc.reads() + mc.writes(), 1024u);
}

// ---- the flat containers those rely on -------------------------------

struct KeyValue
{
    std::uint64_t key;
    std::uint64_t value;
};

struct KeyValueTraits
{
    static constexpr KeyValue free_slot{~std::uint64_t{0}, 0};
    static bool isFree(const KeyValue &s) { return s.key == free_slot.key; }
    std::uint64_t key(const KeyValue &s) const { return s.key; }
};

using KeyValueTable = FlatTable<KeyValue, KeyValueTraits>;

/** Keys strided by a power of two, the worst case for a weak hash. */
std::uint64_t
keyAt(std::uint64_t i)
{
    return i << 21;
}

TEST(FlatTable, FindAndInsertAcrossGrowth)
{
    EXPECT_EQ(allocationsDuring([] { KeyValueTable empty; }), 0u);
    KeyValueTable t;
    EXPECT_EQ(t.find(keyAt(1)), nullptr);
    unsigned growths = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        std::pair<KeyValue *, bool> r;
        const std::uint64_t grew =
            allocationsDuring([&] { r = t.insert({keyAt(i), i}); });
        EXPECT_TRUE(r.second);
        EXPECT_EQ(r.first->value, i);
        if (grew != 0) {
            // Just grew: every earlier key moved and is still found.
            ++growths;
            for (std::uint64_t j = 0; j <= i; ++j) {
                ASSERT_NE(t.find(keyAt(j)), nullptr) << j;
                EXPECT_EQ(t.find(keyAt(j))->value, j);
            }
        }
    }
    EXPECT_GE(growths, 5u);
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_EQ(t.find(keyAt(1000)), nullptr);
    // A resident key is left as it is.
    const auto [slot, inserted] = t.insert({keyAt(7), 99});
    EXPECT_FALSE(inserted);
    EXPECT_EQ(slot->value, 7u);
    EXPECT_EQ(t.size(), 1000u);
}

TEST(FlatTable, ClearThenReuse)
{
    KeyValueTable t;
    for (std::uint64_t i = 0; i < 500; ++i)
        t.insert({keyAt(i), i});
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(keyAt(3)), nullptr);
    // The storage is kept: refilling it allocates nothing.
    EXPECT_EQ(allocationsDuring([&] {
                  for (std::uint64_t i = 500; i < 1000; ++i)
                      t.insert({keyAt(i), i});
              }),
              0u);
    EXPECT_EQ(t.find(keyAt(3)), nullptr);
    ASSERT_NE(t.find(keyAt(999)), nullptr);
    EXPECT_EQ(t.find(keyAt(999))->value, 999u);
}

TEST(FlatTable, EraseKeepsTheRestFindable)
{
    KeyValueTable t;
    for (std::uint64_t i = 0; i < 1000; ++i)
        t.insert({keyAt(i), i});
    for (std::uint64_t i = 0; i < 1000; i += 3)
        t.erase(t.find(keyAt(i)));
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const KeyValue *s = t.find(keyAt(i));
        if (i % 3 == 0) {
            EXPECT_EQ(s, nullptr) << i;
        } else {
            ASSERT_NE(s, nullptr) << i;
            EXPECT_EQ(s->value, i);
        }
    }
    EXPECT_EQ(t.size(), 666u);
}

TEST(FlatTable, IterationVisitsEachEntryExactlyOnce)
{
    KeyValueTable t;
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < 300; ++i) {
        t.insert({keyAt(i), i});
        if (i % 4 == 0)
            t.erase(t.find(keyAt(i)));
        else
            expected.push_back(keyAt(i));
    }
    std::vector<std::uint64_t> seen;
    t.forEach([&](const KeyValue &s) { seen.push_back(s.key); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, expected);
}

TEST(Ring, FifoOrderAndSteadyStateAllocatesNothing)
{
    EXPECT_EQ(allocationsDuring([] { Ring<int> empty; }), 0u);
    Ring<int> r;
    int next_in = 0, next_out = 0;
    const auto churn = [&] {
        // Interleaved pushes and pops that keep up to 40 queued.
        for (int round = 0; round < 100; ++round) {
            while (r.size() < 40)
                r.push_back(next_in++);
            for (int k = 0; k < 25; ++k) {
                ASSERT_EQ(r.front(), next_out++);
                r.pop_front();
            }
        }
    };
    churn();  // warm-up: the ring reaches its high-water mark
    EXPECT_EQ(allocationsDuring(churn), 0u);
    while (!r.empty()) {
        EXPECT_EQ(r.front(), next_out++);
        r.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(Ring, EraseFromTheMiddleKeepsTheOrderOfTheRest)
{
    Ring<int> r;
    for (int i = 0; i < 10; ++i)
        r.push_back(i);
    r.erase(4);
    r.erase(0);
    r.erase(r.size() - 1);
    const std::vector<int> want{1, 2, 3, 5, 6, 7, 8};
    ASSERT_EQ(r.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(r[i], want[i]);
}

TEST(Ring, GrowsWhileTheHeadHasWrapped)
{
    // The first buffer holds 8 elements.
    Ring<int> r;
    for (int i = 0; i < 8; ++i)
        r.push_back(i);
    for (int i = 0; i < 5; ++i)
        r.pop_front();
    // Refill across the buffer's end: no growth yet.
    EXPECT_EQ(allocationsDuring([&] {
                  for (int i = 8; i < 13; ++i)
                      r.push_back(i);
              }),
              0u);
    // Full with the head mid-buffer: this push grows the ring.
    EXPECT_EQ(allocationsDuring([&] { r.push_back(13); }), 1u);
    ASSERT_EQ(r.size(), 9u);
    for (int i = 5; i < 14; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

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
