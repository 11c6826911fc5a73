#include "gpu/sm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace carve {

Sm::Sm(EventQueue &eq, const SystemConfig &cfg, SmId id,
       const Workload &wl, Port &port, std::uint64_t jitter_seed,
       Arena *arena)
    : eq_(eq), cfg_(cfg), id_(id), wl_(wl), port_(port),
      jitter_seed_(jitter_seed),
      l1_("l1", cfg.l1, cfg.line_size),
      l1_mshrs_(cfg.l1.mshrs, arena, &eq),
      parked_reads_(arena),
      warps_(cfg.core.max_warps_per_sm)
{
}

bool
Sm::tryStartCta(KernelId k, CtaId cta)
{
    const unsigned wpc = wl_.warpsPerCta();
    carve_assert(wpc > 0 && wpc <= warps_.size());
    if (freeWarpSlots() < wpc)
        return false;

    const std::uint64_t insts = wl_.instsPerWarp(k);
    unsigned placed = 0;
    for (unsigned slot = 0; slot < warps_.size() && placed < wpc;
         ++slot) {
        WarpContext &w = warps_[slot];
        if (w.active)
            continue;
        w.active = true;
        w.kernel = k;
        w.cta = cta;
        w.warp_in_cta = placed;
        w.next_inst = 0;
        w.insts_total = insts;
        w.pending_lines = 0;
        ++active_warps_;
        ++placed;
        // Defer the first issue with a small deterministic skew.
        // Besides preventing a zero-length warp's retirement from
        // re-entering CTA assignment mid-loop, the skew breaks the
        // event-order tie on simultaneous first-touch races: real
        // hardware distributes those wins uniformly across GPUs,
        // whereas a deterministic event queue would hand every race
        // to the lowest-numbered node.
        std::uint64_t h = jitter_seed_ ^ (cta * 0x9e3779b97f4a7c15ull)
            ^ (static_cast<std::uint64_t>(slot) << 32);
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 29;
        eq_.schedule(eq_.now() + (h & 63),
                     bindEvent<&Sm::issueWarp>(this, slot));
    }
    carve_assert(placed == wpc);
    return true;
}

void
Sm::issueWarp(unsigned slot)
{
    WarpContext &w = warps_[slot];
    if (w.next_inst >= w.insts_total) {
        finishWarp(slot);
        return;
    }

    // LSU arbitration: one warp memory instruction per cycle.
    const Cycle at = std::max(eq_.now(), lsu_free_at_);
    lsu_free_at_ = at + 1;
    eq_.schedule(at, bindEvent<&Sm::execute>(this, slot));
}

void
Sm::execute(unsigned slot)
{
    WarpContext &w = warps_[slot];
    wl_.instruction(w.kernel, w.cta, w.warp_in_cta, w.next_inst,
                     w.cur);
    ++w.next_inst;
    ++insts_issued_;
    carve_assert(w.cur.num_lines > 0 &&
                 w.cur.num_lines <= max_lines_per_inst);
    lines_ += w.cur.num_lines;

    for (unsigned i = 0; i < w.cur.num_lines; ++i)
        port_.recordAccess(w.cur.lines[i], w.cur.type);

    const Cycle tlb_lat = port_.translate(id_, w.cur.lines[0]);

    if (isWrite(w.cur.type)) {
        ++write_insts_;
        // Write-through, no-allocate L1; stores are posted and do not
        // block the warp.
        eq_.scheduleAfter(tlb_lat,
                          bindEvent<&Sm::issueStores>(this, slot));
        eq_.scheduleAfter(tlb_lat + 1 + w.cur.compute_cycles,
                          bindEvent<&Sm::issueWarp>(this, slot));
        return;
    }

    ++read_insts_;
    w.pending_lines = w.cur.num_lines;
    if (read_.on())
        w.read_started = eq_.now();
    eq_.scheduleAfter(tlb_lat, bindEvent<&Sm::issueLoads>(this, slot));
}

void
Sm::issueStores(unsigned slot)
{
    WarpContext &w = warps_[slot];
    for (unsigned i = 0; i < w.cur.num_lines; ++i) {
        l1_.writeProbe(w.cur.lines[i], false);
        port_.accessFromSm(w.cur.lines[i], AccessType::Write,
                           Callback());
    }
}

void
Sm::issueLoads(unsigned slot)
{
    WarpContext &w = warps_[slot];
    // lineDone() may fire synchronously through an MSHR merge
    // completing later, never within this loop, but cur is stable for
    // the instruction's lifetime anyway.
    for (unsigned i = 0; i < w.cur.num_lines; ++i)
        startRead(slot, w.cur.lines[i]);
}

void
Sm::startRead(unsigned slot, Addr line)
{
    if (l1_.readProbe(line)) {
        eq_.scheduleAfter(l1_.hitLatency(),
                          bindEvent<&Sm::lineDone>(this, slot));
        return;
    }
    allocateMiss(slot, line);
}

void
Sm::allocateMiss(unsigned slot, Addr line)
{
    if (tryAllocateMiss(slot, line))
        return;
    // One stall episode begins: park once on the MSHR wake-list and
    // wait to be drained through the event queue when a fill frees a
    // register — no retry polling.
    ++mshr_stalls_;
    const std::uint32_t parked = parked_reads_.alloc(
        ParkedRead{line, eq_.now(), slot});
    l1_mshrs_.park(Completion::bind<&Sm::wakeL1Miss>(this, parked));
}

void
Sm::wakeL1Miss(std::uint32_t parked)
{
    const ParkedRead r = parked_reads_[parked];
    if (!tryAllocateMiss(r.slot, r.line)) {
        // Earlier waiters took every freed register: same episode
        // continues, keep the record and our wake-list position.
        l1_mshrs_.park(Completion::bind<&Sm::wakeL1Miss>(this,
                                                         parked));
        return;
    }
    // One instant per stall episode, with the park duration as
    // payload (the per-poll variant flooded the ring buffer).
    stall_.instant(eq_.now(), eq_.now() - r.since);
    parked_reads_.free(parked);
}

bool
Sm::tryAllocateMiss(unsigned slot, Addr line)
{
    const MshrOutcome out = l1_mshrs_.allocate(
        line, Completion::bind<&Sm::lineDone>(this, slot));
    switch (out) {
      case MshrOutcome::NewEntry:
        port_.accessFromSm(line, AccessType::Read,
                           Completion::bind<&Sm::finishL1Fill>(this,
                                                               line));
        return true;
      case MshrOutcome::Merged:
        return true;
      case MshrOutcome::Full:
        return false;
    }
    return false;
}

void
Sm::finishL1Fill(Addr line)
{
    l1_.fill(line, false);
    l1_mshrs_.complete(line);
}

void
Sm::lineDone(unsigned slot)
{
    WarpContext &w = warps_[slot];
    carve_assert(w.pending_lines > 0);
    if (--w.pending_lines == 0) {
        read_.span(w.read_started, eq_.now(), w.cur.num_lines);
        eq_.scheduleAfter(1 + w.cur.compute_cycles,
                          bindEvent<&Sm::issueWarp>(this, slot));
    }
}

void
Sm::finishWarp(unsigned slot)
{
    WarpContext &w = warps_[slot];
    carve_assert(w.active);
    w.active = false;
    carve_assert(active_warps_ > 0);
    --active_warps_;

    // The CTA retires with its last warp: no other active slot
    // still holds its id.
    const bool last = std::none_of(
        warps_.begin(), warps_.end(), [&](const WarpContext &o) {
            return o.active && o.cta == w.cta;
        });
    if (last)
        port_.onCtaRetired(id_, w.cta);
}

void
Sm::registerStats(stats::StatGroup &g)
{
    g.addScalar("insts_issued", &insts_issued_);
    g.addScalar("read_insts", &read_insts_);
    g.addScalar("write_insts", &write_insts_);
    g.addScalar("lines_accessed", &lines_);
    g.addScalar("mshr_stalls", &mshr_stalls_);

    stat_groups_.push_back(
        std::make_unique<stats::StatGroup>("l1", &g));
    stats::StatGroup &l1g = *stat_groups_.back();
    l1_.registerStats(l1g);
    stat_groups_.push_back(
        std::make_unique<stats::StatGroup>("mshrs", &l1g));
    l1_mshrs_.registerStats(*stat_groups_.back());
}

} // namespace carve
