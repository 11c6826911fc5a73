#include "common/arena.hh"

#include "common/hostnuma.hh"
#include "common/logging.hh"

namespace carve {

Arena::Arena(std::size_t chunk_bytes, int numa_node)
    : chunk_bytes_(chunk_bytes ? chunk_bytes : std::size_t{1} << 20),
      numa_node_(numa_node)
{
}

Arena::Arena(Arena &&other) noexcept
    : chunks_(std::move(other.chunks_)),
      chunk_bytes_(other.chunk_bytes_),
      used_bytes_(other.used_bytes_),
      reserved_bytes_(other.reserved_bytes_),
      numa_node_(other.numa_node_)
{
    other.chunks_.clear();
    other.used_bytes_ = 0;
    other.reserved_bytes_ = 0;
}

Arena::~Arena()
{
    for (Chunk &c : chunks_)
        releaseChunk(c);
}

Arena::Chunk
Arena::makeChunk(std::size_t size)
{
    Chunk c;
    c.size = size;
    if (numa_node_ >= 0) {
        c.base = static_cast<std::byte *>(
            hostnuma::allocOnNode(size, numa_node_));
        c.numa_backed = c.base != nullptr;
    }
    if (!c.base) {
        // Slabs are aligned to max_align_t at minimum; allocate()
        // bumps within them to the caller's alignment.
        c.base = static_cast<std::byte *>(::operator new(
            size, std::align_val_t{alignof(std::max_align_t)}));
    }
    reserved_bytes_ += size;
    CARVE_POISON(c.base, c.size);
    return c;
}

void
Arena::releaseChunk(Chunk &c)
{
    if (!c.base)
        return;
    CARVE_UNPOISON(c.base, c.size);
    if (c.numa_backed)
        hostnuma::freeOnNode(c.base, c.size);
    else
        ::operator delete(c.base,
                          std::align_val_t{alignof(std::max_align_t)});
    c.base = nullptr;
}

void *
Arena::allocate(std::size_t bytes, std::size_t align)
{
    if (bytes == 0)
        bytes = 1;
    if (align == 0 || (align & (align - 1)) != 0)
        fatal("Arena::allocate: bad alignment %zu", align);

    // Oversized request: dedicated chunk, inserted *in front of*
    // the bump chunk so that one stays last.
    if (bytes + align > chunk_bytes_) {
        Chunk c = makeChunk(bytes + align);
        const std::size_t base =
            reinterpret_cast<std::uintptr_t>(c.base);
        const std::size_t off = (align - base % align) % align;
        c.used = off + bytes;
        used_bytes_ += bytes;
        CARVE_UNPOISON(c.base + off, bytes);
        // With no bump chunk yet, the dedicated chunk becomes the
        // (nearly full) bump chunk; the next small request rolls over
        // to a fresh slab via the usual overflow path.
        chunks_.insert(chunks_.begin(), c);
        return c.base + off;
    }

    if (chunks_.empty())
        chunks_.push_back(makeChunk(chunk_bytes_));
    Chunk *c = &chunks_.back();
    std::size_t off =
        (reinterpret_cast<std::uintptr_t>(c->base) + c->used);
    std::size_t pad = (align - off % align) % align;
    if (c->used + pad + bytes > c->size) {
        chunks_.push_back(makeChunk(chunk_bytes_));
        c = &chunks_.back();
        off = (reinterpret_cast<std::uintptr_t>(c->base) + c->used);
        pad = (align - off % align) % align;
    }
    std::byte *p = c->base + c->used + pad;
    c->used += pad + bytes;
    used_bytes_ += bytes;
    CARVE_UNPOISON(p, bytes);
    return p;
}

} // namespace carve
