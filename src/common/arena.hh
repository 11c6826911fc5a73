/**
 * @file
 * Chunked arena + typed pool allocator family for the simulation hot
 * path. The event queue's chunked EventNode pool is the template:
 * allocate big slabs rarely, hand out small objects for free, never
 * return memory mid-run.
 *
 * Arena — a bump allocator over a list of chunks. Allocations are
 * aligned, never individually freed, and live until the arena is
 * destroyed. When built with -DCARVE_NUMA=ON and the arena is given a
 * host NUMA node, chunks are allocated on that node via the hostnuma
 * shim (dlopen'd libnuma); otherwise plain operator new — behaviour
 * is identical either way.
 *
 * Pool<T> — a typed chunked pool with stable 32-bit handles and a
 * LIFO in-slot free list. Growth adds chunks; existing elements
 * never move, so handles (and pointers) stay valid across growth.
 * T must be trivially copyable: freed slots store the free-list link
 * in their own bytes, and under ASan freed slots are poisoned so
 * use-after-free of a recycled handle traps in the sanitizer CI job.
 *
 * Ownership convention (see DESIGN.md "Memory layout & ownership"):
 * MultiGpuSystem owns the arenas; components hold Pool<>s backed by
 * them; everything dies together, which is why handles — not owning
 * pointers — cross component boundaries.
 */

#ifndef CARVE_COMMON_ARENA_HH
#define CARVE_COMMON_ARENA_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define CARVE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CARVE_ASAN 1
#endif
#endif
#ifndef CARVE_ASAN
#define CARVE_ASAN 0
#endif

#if CARVE_ASAN
#include <sanitizer/asan_interface.h>
#define CARVE_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define CARVE_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define CARVE_POISON(p, n) ((void)0)
#define CARVE_UNPOISON(p, n) ((void)0)
#endif

namespace carve {

/**
 * Bump allocator over chunks of @p chunk_bytes (oversized requests
 * get a dedicated chunk). Not thread-safe: one arena per component /
 * per worker, never shared.
 */
class Arena
{
  public:
    /** Default slab size: large enough that steady-state simulation
     * touches a handful of slabs, small enough to not bloat tests. */
    static constexpr std::size_t default_chunk_bytes =
        std::size_t{1} << 20;

    /** @param chunk_bytes slab size.
     *  @param numa_node host NUMA node to place slabs on; -1 (or a
     *         build without CARVE_NUMA / a machine without libnuma)
     *         means ordinary heap memory. */
    explicit Arena(std::size_t chunk_bytes = default_chunk_bytes,
                   int numa_node = -1);
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;
    Arena(Arena &&other) noexcept;
    Arena &operator=(Arena &&) = delete;

    /** Aligned raw allocation; never fails softly (fatal on OOM). */
    void *allocate(std::size_t bytes, std::size_t align);

    /** Typed array allocation (uninitialized storage). */
    template <class T>
    T *
    allocate(std::size_t n = 1)
    {
        return static_cast<T *>(allocate(sizeof(T) * n, alignof(T)));
    }

    /** Bytes handed out since construction (aligned sizes). */
    std::size_t usedBytes() const { return used_bytes_; }

    /** Bytes held in slabs (>= usedBytes()). */
    std::size_t reservedBytes() const { return reserved_bytes_; }

    /** Host NUMA node slabs are bound to, or -1. */
    int numaNode() const { return numa_node_; }

  private:
    struct Chunk
    {
        std::byte *base = nullptr;
        std::size_t size = 0;
        std::size_t used = 0;
        bool numa_backed = false;
    };

    Chunk makeChunk(std::size_t size);
    void releaseChunk(Chunk &c);

    /** The last chunk is the one being bumped; dedicated oversized
     * chunks are inserted in front of it. */
    std::vector<Chunk> chunks_;
    std::size_t chunk_bytes_;
    std::size_t used_bytes_ = 0;
    std::size_t reserved_bytes_ = 0;
    int numa_node_;
};

/**
 * Typed chunked pool: alloc() returns a stable uint32 handle, free()
 * recycles it LIFO. Backed by an Arena when one is supplied (chunks
 * then live until the arena dies), by operator new otherwise.
 */
template <class T>
class Pool
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Pool slots are recycled bytewise");
    static_assert(sizeof(T) >= sizeof(std::uint32_t),
                  "freed slots store the free-list link in place");

  public:
    using Handle = std::uint32_t;
    static constexpr Handle npos = 0xffffffffu;

    /** @param arena optional backing arena; @p chunk_elems must be a
     * power of two. */
    explicit Pool(Arena *arena = nullptr,
                  std::uint32_t chunk_elems = 256)
        : arena_(arena), chunk_elems_(chunk_elems),
          shift_(std::countr_zero(chunk_elems))
    {
    }

    ~Pool()
    {
        if (!arena_) {
            for (T *c : chunks_)
                ::operator delete(c, std::align_val_t{alignof(T)});
        }
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Movable so pools can live in containers (vector growth only;
     * a pool must not be moved while handles are outstanding). */
    Pool(Pool &&other) noexcept
        : arena_(other.arena_), chunks_(std::move(other.chunks_)),
          chunk_elems_(other.chunk_elems_), shift_(other.shift_),
          high_water_(other.high_water_), live_(other.live_),
          free_head_(other.free_head_)
    {
        other.chunks_.clear();
        other.free_head_ = npos;
        other.high_water_ = 0;
        other.live_ = 0;
    }
    Pool &operator=(Pool &&) = delete;

    Handle
    alloc(const T &value)
    {
        Handle h;
        if (free_head_ != npos) {
            h = free_head_;
            T *slot = slotPtr(h);
            CARVE_UNPOISON(slot, sizeof(T));
            std::memcpy(&free_head_, slot, sizeof(Handle));
        } else {
            if ((high_water_ >> shift_) ==
                static_cast<std::uint32_t>(chunks_.size()))
                grow();
            h = high_water_++;
        }
        T *slot = slotPtr(h);
        // void* casts: T is trivially copyable but may have default
        // member initializers, which -Wclass-memaccess flags.
        std::memcpy(static_cast<void *>(slot), &value, sizeof(T));
        ++live_;
        return h;
    }

    void
    free(Handle h)
    {
        T *slot = slotPtr(h);
        std::memcpy(static_cast<void *>(slot), &free_head_,
                    sizeof(Handle));
        CARVE_POISON(slot, sizeof(T));
        free_head_ = h;
        --live_;
    }

    T &
    operator[](Handle h)
    {
        return *slotPtr(h);
    }

    const T &
    operator[](Handle h) const
    {
        return *const_cast<Pool *>(this)->slotPtr(h);
    }

    std::uint32_t live() const { return live_; }
    std::uint32_t capacity() const { return high_water_; }

    /**
     * Pre-size the chunk-pointer table. A pool whose records are read
     * from another event domain (the fabric's in-flight op pools) must
     * never reallocate the table while a reader indexes it; reserving
     * up front keeps grow() to a data()-stable push_back. Elements
     * themselves never move regardless.
     */
    void
    reserveChunks(std::size_t n)
    {
        chunks_.reserve(n);
    }

  private:
    T *
    slotPtr(Handle h)
    {
        return chunks_[h >> shift_] + (h & (chunk_elems_ - 1));
    }

    void
    grow()
    {
        const std::size_t bytes = sizeof(T) * chunk_elems_;
        T *chunk = arena_
            ? arena_->allocate<T>(chunk_elems_)
            : static_cast<T *>(::operator new(
                  bytes, std::align_val_t{alignof(T)}));
        chunks_.push_back(chunk);
    }

    Arena *arena_;
    std::vector<T *> chunks_;
    std::uint32_t chunk_elems_;
    std::uint32_t shift_;
    std::uint32_t high_water_ = 0;
    std::uint32_t live_ = 0;
    Handle free_head_ = npos;
};

} // namespace carve

#endif // CARVE_COMMON_ARENA_HH
