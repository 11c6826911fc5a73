/**
 * @file
 * Minimalist open-page DRAM address mapping (Kaseridis et al.,
 * MICRO '11), as used by the paper's baseline memory controller.
 *
 * Consecutive cache lines interleave across channels first so that
 * streaming accesses exercise all channels concurrently; within a
 * channel a small run of lines shares a row before switching banks,
 * balancing row locality against bank-level parallelism.
 */

#ifndef CARVE_MEM_ADDRESS_MAPPING_HH
#define CARVE_MEM_ADDRESS_MAPPING_HH

#include "common/types.hh"

namespace carve {

/** Decoded DRAM coordinates of one line-sized access. */
struct DramCoord
{
    unsigned channel;
    unsigned bank;
    std::uint64_t row;

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && bank == o.bank && row == o.row;
    }
};

/**
 * Stateless translator from local physical addresses to DRAM
 * coordinates.
 */
class AddressMapping
{
  public:
    /**
     * @param line_size cache line size in bytes (power of two)
     * @param channels number of channels per GPU
     * @param banks_per_channel banks in each channel
     * @param row_size row-buffer size in bytes
     */
    AddressMapping(std::uint64_t line_size, unsigned channels,
                   unsigned banks_per_channel, std::uint64_t row_size);

    /** Decode the coordinates of the line containing @p addr. */
    DramCoord decode(Addr addr) const;

    unsigned channels() const { return channels_; }

    /** Lines that share one row buffer. */
    std::uint64_t linesPerRow() const { return lines_per_row_; }

  private:
    std::uint64_t line_size_;
    unsigned channels_;
    unsigned banks_;
    std::uint64_t lines_per_row_;
};

} // namespace carve

#endif // CARVE_MEM_ADDRESS_MAPPING_HH
