#include "coherence/gpu_vi.hh"

#include <utility>

#include "common/logging.hh"

namespace carve {

GpuVi::GpuVi(const SystemConfig &cfg, unsigned num_gpus,
             SystemFabric &fabric)
    : cfg_(cfg), num_gpus_(num_gpus), fabric_(fabric)
{
    imsts_.reserve(num_gpus);
    for (unsigned g = 0; g < num_gpus; ++g)
        imsts_.emplace_back(g, 0.01, cfg.seed + 101);
}

void
GpuVi::onRead(NodeId home, NodeId requester, Addr line_addr)
{
    carve_assert(home < num_gpus_);
    bool unused = false;
    imsts_[home].onAccess(line_addr, requester, AccessType::Read,
                          unused);
}

unsigned
GpuVi::onWrite(NodeId home, NodeId requester, Addr line_addr)
{
    carve_assert(home < num_gpus_);
    bool needs_invalidate = false;
    imsts_[home].onAccess(line_addr, requester, AccessType::Write,
                          needs_invalidate);
    if (!needs_invalidate)
        return 0;

    unsigned sent = 0;
    for (NodeId node = 0; node < num_gpus_; ++node) {
        if (node == requester)
            continue;
        // The home node drops its own copies without a network hop.
        if (node != home)
            fabric_.sendCtrl(home, node, cfg_.link.ctrl_packet_size);
        fabric_.invalidateAt(node, line_addr);
        ++sent;
        invalidates_sent_.inc();
    }
    return sent;
}

std::uint64_t
GpuVi::writesFiltered() const
{
    std::uint64_t total = 0;
    for (const auto &imst : imsts_)
        total += imst.filteredWrites();
    return total;
}

void
GpuVi::registerStats(stats::StatGroup &g)
{
    g.addScalar("invalidates_sent", &invalidates_sent_.scalar());
    g.addDerivedInt("writes_filtered",
                    [this] { return writesFiltered(); });
    for (std::size_t h = 0; h < imsts_.size(); ++h) {
        auto child = std::make_unique<stats::StatGroup>(
            "imst" + std::to_string(h), &g);
        imsts_[h].registerStats(*child);
        imst_groups_.push_back(std::move(child));
    }
}

} // namespace carve
