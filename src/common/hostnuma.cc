#include "common/hostnuma.hh"

#if CARVE_NUMA_ENABLED
#include <dlfcn.h>
#include <sched.h>

#include <mutex>
#endif

namespace carve {
namespace hostnuma {

#if CARVE_NUMA_ENABLED

namespace {

/** Resolved libnuma entry points; fn pointers stay null when the
 * library (or kernel support) is absent. */
struct LibNuma
{
    int (*numa_available)() = nullptr;
    int (*num_configured_nodes)() = nullptr;
    int (*node_of_cpu)(int) = nullptr;
    int (*run_on_node)(int) = nullptr;
    void (*set_preferred)(int) = nullptr;
    void *(*alloc_onnode)(std::size_t, int) = nullptr;
    void (*numa_free)(void *, std::size_t) = nullptr;

    bool ok = false;
};

const LibNuma &
lib()
{
    static LibNuma l;
    static std::once_flag once;
    std::call_once(once, [] {
        void *h = dlopen("libnuma.so.1", RTLD_NOW | RTLD_LOCAL);
        if (!h)
            return;
        const auto sym = [h](const char *n) {
            return dlsym(h, n);
        };
        l.numa_available = reinterpret_cast<int (*)()>(
            sym("numa_available"));
        l.num_configured_nodes = reinterpret_cast<int (*)()>(
            sym("numa_num_configured_nodes"));
        l.node_of_cpu = reinterpret_cast<int (*)(int)>(
            sym("numa_node_of_cpu"));
        l.run_on_node = reinterpret_cast<int (*)(int)>(
            sym("numa_run_on_node"));
        l.set_preferred = reinterpret_cast<void (*)(int)>(
            sym("numa_set_preferred"));
        l.alloc_onnode =
            reinterpret_cast<void *(*)(std::size_t, int)>(
                sym("numa_alloc_onnode"));
        l.numa_free = reinterpret_cast<void (*)(void *, std::size_t)>(
            sym("numa_free"));
        if (!l.numa_available || !l.num_configured_nodes ||
            !l.alloc_onnode || !l.numa_free)
            return;
        l.ok = l.numa_available() >= 0;
    });
    return l;
}

} // namespace

bool
available()
{
    return lib().ok;
}

int
nodeCount()
{
    const LibNuma &l = lib();
    if (!l.ok)
        return 1;
    const int n = l.num_configured_nodes();
    return n > 0 ? n : 1;
}

int
currentNode()
{
    const LibNuma &l = lib();
    if (!l.ok || !l.node_of_cpu)
        return 0;
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return 0;
    const int node = l.node_of_cpu(cpu);
    return node >= 0 ? node : 0;
}

bool
bindThreadToNode(int node)
{
    const LibNuma &l = lib();
    if (!l.ok || !l.run_on_node || node < 0 || node >= nodeCount())
        return false;
    if (l.run_on_node(node) != 0)
        return false;
    if (l.set_preferred)
        l.set_preferred(node);
    return true;
}

void *
allocOnNode(std::size_t bytes, int node)
{
    const LibNuma &l = lib();
    if (!l.ok || node < 0 || node >= nodeCount())
        return nullptr;
    return l.alloc_onnode(bytes, node);
}

void
freeOnNode(void *p, std::size_t bytes)
{
    const LibNuma &l = lib();
    if (l.ok && p)
        l.numa_free(p, bytes);
}


#else // !CARVE_NUMA_ENABLED

bool
available()
{
    return false;
}

int
nodeCount()
{
    return 1;
}

int
currentNode()
{
    return 0;
}

bool
bindThreadToNode(int)
{
    return false;
}

void *
allocOnNode(std::size_t, int)
{
    return nullptr;
}

void
freeOnNode(void *, std::size_t)
{
}


#endif // CARVE_NUMA_ENABLED

} // namespace hostnuma
} // namespace carve
