#include "mem/memory_controller.hh"

#include <utility>

#include "common/logging.hh"

namespace carve {

MemoryController::MemoryController(EventQueue &eq,
                                   const SystemConfig &cfg,
                                   Arena *arena)
    : eq_(eq),
      mapping_(cfg.line_size, cfg.dram.channels,
               cfg.dram.banks_per_channel, cfg.dram.row_size),
      line_size_(cfg.line_size),
      staged_(cfg.dram.channels),
      audit_done_(arena)
{
    channels_.reserve(cfg.dram.channels);
    for (unsigned i = 0; i < cfg.dram.channels; ++i) {
        channels_.push_back(std::make_unique<DramChannel>(
            eq, cfg.dram, cfg.line_size,
            Completion::bind<&MemoryController::drainStaged>(this, i)));
    }
}

void
MemoryController::access(Addr addr, AccessType type, Callback done)
{
    const DramCoord coord = mapping_.decode(addr);
    if (isWrite(type))
        ++writes_;
    else
        ++reads_;

    DramRequest req;
    req.bank = coord.bank;
    req.row = coord.row;
    req.type = type;
    req.on_done = done;

    if (audit_) {
        // Wrap (and, for posted writes, materialize) the completion so
        // the token is provably retired when the channel issues it.
        // The wrapped completion is parked in a pool keyed by handle.
        audit_->issue(audit::Boundary::DramAccess);
        const std::uint32_t handle = audit_done_.alloc(req.on_done);
        req.on_done = Completion::bind<&MemoryController::auditRetire>(
            this, handle);
    }

    auto &stage = staged_[coord.channel];
    if (!stage.empty() || !channels_[coord.channel]->enqueue(req)) {
        // Preserve arrival order behind already-staged requests.
        stage.push_back(req);
    }
}

void
MemoryController::auditRetire(std::uint32_t handle)
{
    audit_->retire(audit::Boundary::DramAccess);
    const Completion done = audit_done_[handle];
    audit_done_.free(handle);
    if (done)
        done();
}

void
MemoryController::drainStaged(unsigned ch)
{
    auto &stage = staged_[ch];
    while (!stage.empty()) {
        if (!channels_[ch]->enqueue(stage.front()))
            break;
        stage.pop_front();
    }
}

void
MemoryController::registerStats(stats::StatGroup &g)
{
    g.addScalar("reads", &reads_);
    g.addScalar("writes", &writes_);
    g.addDerived("row_hit_rate", [this] { return rowHitRate(); });
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        auto child = std::make_unique<stats::StatGroup>(
            "ch" + std::to_string(i), &g);
        channels_[i]->registerStats(*child);
        channel_groups_.push_back(std::move(child));
    }
}

double
MemoryController::rowHitRate() const
{
    double weighted = 0.0;
    std::uint64_t total = 0;
    for (const auto &ch : channels_) {
        const std::uint64_t n = ch->readsIssued() + ch->writesIssued();
        weighted += ch->rowHitRate() * static_cast<double>(n);
        total += n;
    }
    return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

} // namespace carve
