#include "mem/address_mapping.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace carve {

AddressMapping::AddressMapping(std::uint64_t line_size, unsigned channels,
                               unsigned banks_per_channel,
                               std::uint64_t row_size)
    : line_size_(line_size), channels_(channels),
      banks_(banks_per_channel)
{
    if (!isPowerOf2(line_size))
        fatal("AddressMapping: line size must be a power of two");
    if (channels == 0 || banks_per_channel == 0)
        fatal("AddressMapping: need at least one channel and bank");
    if (row_size < line_size)
        fatal("AddressMapping: row smaller than a line");
    lines_per_row_ = Divisor(row_size / line_size);
}

DramCoord
AddressMapping::decode(Addr addr) const
{
    const std::uint64_t line = line_size_.div(addr);
    DramCoord c;
    c.channel = static_cast<unsigned>(channels_.mod(line));
    const std::uint64_t in_channel = channels_.div(line);
    const std::uint64_t row_run = lines_per_row_.div(in_channel);
    c.bank = static_cast<unsigned>(banks_.mod(row_run));
    c.row = banks_.div(row_run);
    return c;
}

} // namespace carve
