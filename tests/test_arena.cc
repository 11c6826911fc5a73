/**
 * @file
 * Unit tests for the chunked Arena / Pool<T> allocator family
 * (src/common/arena.hh): alignment guarantees, chunk growth,
 * handle/pointer stability across growth, move semantics, and the
 * hostnuma fallback contract. The use-after-free poisoning
 * path is exercised under the ASan/UBSan CI job, where a recycled
 * handle dereference traps in the sanitizer.
 */

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.hh"
#include "common/hostnuma.hh"

namespace carve {
namespace {

bool
alignedTo(const void *p, std::size_t align)
{
    return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(Arena, RespectsRequestedAlignment)
{
    Arena arena(4096);
    // Deliberately misalign the bump pointer between requests.
    for (std::size_t align : {1ul, 2ul, 4ul, 8ul, 16ul, 64ul, 256ul}) {
        arena.allocate(1, 1);
        void *p = arena.allocate(align * 2, align);
        EXPECT_TRUE(alignedTo(p, align)) << "align " << align;
    }
}

TEST(Arena, TypedAllocateIsAlignedForTheType)
{
    struct alignas(64) Padded
    {
        unsigned char bytes[64];
    };
    Arena arena(4096);
    arena.allocate(1, 1);
    Padded *p = arena.allocate<Padded>(3);
    EXPECT_TRUE(alignedTo(p, alignof(Padded)));
}

TEST(Arena, GrowsByChunksAndTracksUsage)
{
    constexpr std::size_t chunk = 1024;
    Arena arena(chunk);
    EXPECT_EQ(arena.usedBytes(), 0u);

    // Fill more than one chunk with small allocations.
    for (int i = 0; i < 100; ++i)
        arena.allocate(64, 8);
    EXPECT_EQ(arena.usedBytes(), 6400u);
    EXPECT_GE(arena.reservedBytes(), arena.usedBytes());
    EXPECT_GE(arena.reservedBytes(), 4 * chunk);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk)
{
    constexpr std::size_t chunk = 512;
    Arena arena(chunk);
    void *big = arena.allocate(8 * chunk, 16);
    ASSERT_NE(big, nullptr);
    // The slab must actually hold the request: write every byte.
    std::memset(big, 0xab, 8 * chunk);
    EXPECT_GE(arena.reservedBytes(), 8 * chunk);

    // Small allocations keep working after the oversized one.
    void *small = arena.allocate(32, 8);
    ASSERT_NE(small, nullptr);
    std::memset(small, 0xcd, 32);
}

TEST(Arena, AllocationsDoNotOverlap)
{
    Arena arena(256);  // tiny chunks force frequent growth
    std::vector<std::pair<std::uintptr_t, std::size_t>> spans;
    for (int i = 0; i < 64; ++i) {
        const std::size_t n = 16 + (i % 7) * 24;
        auto *p = static_cast<unsigned char *>(arena.allocate(n, 8));
        std::memset(p, i, n);
        spans.emplace_back(reinterpret_cast<std::uintptr_t>(p), n);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        for (std::size_t j = i + 1; j < spans.size(); ++j) {
            const bool disjoint =
                spans[i].first + spans[i].second <= spans[j].first ||
                spans[j].first + spans[j].second <= spans[i].first;
            EXPECT_TRUE(disjoint) << "spans " << i << "/" << j;
        }
    }
}

TEST(Arena, MoveTransfersOwnership)
{
    Arena a(1024);
    auto *p = static_cast<unsigned char *>(a.allocate(16, 8));
    std::memset(p, 0x5a, 16);
    const std::size_t used = a.usedBytes();

    Arena b(std::move(a));
    EXPECT_EQ(b.usedBytes(), used);
    // The allocation survives the move (chunks are not copied).
    EXPECT_EQ(p[0], 0x5a);
    EXPECT_EQ(p[15], 0x5a);
}

TEST(Arena, UnknownNumaNodeFallsBackToHeap)
{
    // Node requests must degrade to plain heap slabs when libnuma (or
    // the node) is unavailable — behaviour identical either way.
    Arena arena(1024, /*numa_node=*/0);
    void *p = arena.allocate(128, 16);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, 128);
    if (!hostnuma::available()) {
        EXPECT_EQ(arena.numaNode(), 0);  // recorded, even if inert
    }
}

struct Record
{
    std::uint64_t a = 0;
    std::uint32_t b = 0;
};

TEST(Pool, HandlesAreStableAcrossGrowth)
{
    Pool<Record> pool(nullptr, /*chunk_elems=*/4);
    std::vector<Pool<Record>::Handle> handles;
    std::vector<Record *> ptrs;
    for (std::uint32_t i = 0; i < 64; ++i) {
        const auto h = pool.alloc({i * 3ull, i});
        handles.push_back(h);
        ptrs.push_back(&pool[h]);
    }
    EXPECT_EQ(pool.live(), 64u);
    EXPECT_EQ(pool.capacity(), 64u);
    for (std::uint32_t i = 0; i < 64; ++i) {
        // Neither the handle mapping nor the element address may have
        // changed as chunks were added.
        EXPECT_EQ(&pool[handles[i]], ptrs[i]);
        EXPECT_EQ(pool[handles[i]].a, i * 3ull);
        EXPECT_EQ(pool[handles[i]].b, i);
    }
}

TEST(Pool, FreeRecyclesLifoWithoutGrowingCapacity)
{
    Pool<Record> pool(nullptr, 4);
    const auto h0 = pool.alloc({1, 1});
    const auto h1 = pool.alloc({2, 2});
    const auto h2 = pool.alloc({3, 3});
    EXPECT_EQ(pool.capacity(), 3u);

    pool.free(h1);
    pool.free(h2);
    EXPECT_EQ(pool.live(), 1u);

    // LIFO: the most recently freed slot comes back first.
    EXPECT_EQ(pool.alloc({4, 4}), h2);
    EXPECT_EQ(pool.alloc({5, 5}), h1);
    EXPECT_EQ(pool.capacity(), 3u);
    EXPECT_EQ(pool[h0].a, 1ull);
    EXPECT_EQ(pool[h2].a, 4ull);
    EXPECT_EQ(pool[h1].a, 5ull);
}

TEST(Pool, ArenaBackedPoolSharesTheArena)
{
    Arena arena(4096);
    Pool<Record> pool(&arena, 8);
    const std::size_t before = arena.usedBytes();
    std::vector<Pool<Record>::Handle> handles;
    for (std::uint32_t i = 0; i < 32; ++i)
        handles.push_back(pool.alloc({i, i}));
    EXPECT_GT(arena.usedBytes(), before);
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(pool[handles[i]].b, i);
}

TEST(Pool, ChurnNeverConfusesLiveSlots)
{
    // Alternating alloc/free storm: live handles must keep their
    // payloads while freed slots are recycled underneath them.
    Pool<Record> pool(nullptr, 4);
    std::vector<Pool<Record>::Handle> live;
    std::uint64_t next = 0;
    for (int round = 0; round < 200; ++round) {
        const auto h = pool.alloc({next, static_cast<uint32_t>(next)});
        ++next;
        live.push_back(h);
        if (round % 3 == 2) {
            // Free the middle element to mix the free list.
            const auto victim = live[live.size() / 2];
            pool.free(victim);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(live.size() / 2));
        }
    }
    std::set<Pool<Record>::Handle> uniq(live.begin(), live.end());
    EXPECT_EQ(uniq.size(), live.size());
    EXPECT_EQ(pool.live(), live.size());
}

#if CARVE_ASAN
TEST(PoolDeathTest, UseAfterFreeTrapsUnderAsan)
{
    // Freed slots are poisoned; touching one through a stale handle
    // must abort inside ASan (the CI sanitizer leg runs this).
    EXPECT_DEATH(
        {
            Pool<Record> pool(nullptr, 4);
            const auto h = pool.alloc({7, 7});
            pool.free(h);
            // volatile: the use-after-free load must survive -O2.
            volatile std::uint64_t sink = pool[h].a;
            (void)sink;
        },
        "");
}
#endif

} // namespace
} // namespace carve
