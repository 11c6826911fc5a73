#include "coherence/imst.hh"

#include "common/logging.hh"

namespace carve {

const char *
sharingStateName(SharingState s)
{
    switch (s) {
      case SharingState::Uncached: return "uncached";
      case SharingState::Private: return "private";
      case SharingState::ReadShared: return "read-shared";
      case SharingState::ReadWriteShared: return "read-write-shared";
    }
    return "?";
}

Imst::Imst(NodeId home, double demote_probability, std::uint64_t seed)
    : home_(home), demote_probability_(demote_probability),
      rng_(seed + home)
{
}

SharingState
Imst::state(Addr line_addr) const
{
    const LineState *ls = states_.find(line_addr);
    return ls == nullptr ? SharingState::Uncached : stateOf(*ls);
}

NodeId
Imst::owner(Addr line_addr) const
{
    const LineState *ls = states_.find(line_addr);
    if (ls == nullptr || stateOf(*ls) != SharingState::Private)
        return invalid_node;
    return ownerOf(*ls);
}

SharingState
Imst::onAccess(Addr line_addr, NodeId requester, AccessType type,
               bool &needs_invalidate)
{
    carve_assert(line_addr <= line_mask && requester < owner_mask);
    needs_invalidate = false;
    const bool write = isWrite(type);
    LineState *ls = states_.find(line_addr);
    SharingState state =
        ls == nullptr ? SharingState::Uncached : stateOf(*ls);
    NodeId owner = ls == nullptr ? invalid_node : ownerOf(*ls);

    switch (state) {
      case SharingState::Uncached:
        state = SharingState::Private;
        owner = requester;
        break;

      case SharingState::Private:
        if (requester != owner) {
            if (write) {
                // The old owner may cache a stale copy: invalidate.
                needs_invalidate = true;
                state = SharingState::ReadWriteShared;
            } else {
                state = SharingState::ReadShared;
            }
        }
        break;

      case SharingState::ReadShared:
        if (write) {
            needs_invalidate = true;
            state = SharingState::ReadWriteShared;
        }
        break;

      case SharingState::ReadWriteShared:
        if (write)
            needs_invalidate = true;
        break;
    }

    // Sticky-state escape: a write to a shared line occasionally
    // resets it to Private for the writer (after the invalidate
    // broadcast) so lines whose sharing phase ended stop paying
    // broadcast costs.
    if (write && needs_invalidate && rng_.chance(demote_probability_)) {
        state = SharingState::Private;
        owner = requester;
        ++demotions_;
    }

    if (write) {
        if (needs_invalidate)
            ++shared_writes_;
        else
            ++filtered_writes_;
    }

    const std::uint64_t owner_bits =
        state == SharingState::Private ? owner : 0;
    const LineState next{line_addr | owner_bits << owner_shift |
                         static_cast<std::uint64_t>(state)
                             << state_shift};
    if (ls != nullptr)
        *ls = next;
    else
        states_.insert(next);
    return state;
}

} // namespace carve
