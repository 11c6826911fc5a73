/** @file Unit tests for the DRAM model: address mapping, banks,
 * FR-FCFS channel scheduling and the memory-controller front end. */

#include <gtest/gtest.h>

#include <set>

#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "mem/address_mapping.hh"
#include "mem/dram_bank.hh"
#include "mem/dram_channel.hh"
#include "mem/memory_controller.hh"

namespace carve {
namespace {

// ---- address mapping ------------------------------------------------

TEST(AddressMapping, ConsecutiveLinesInterleaveChannels)
{
    AddressMapping m(128, 16, 16, 2048);
    for (unsigned i = 0; i < 64; ++i) {
        const DramCoord c = m.decode(static_cast<Addr>(i) * 128);
        EXPECT_EQ(c.channel, i % 16);
    }
}

TEST(AddressMapping, SameLineSameCoordinates)
{
    AddressMapping m(128, 16, 16, 2048);
    const DramCoord a = m.decode(0x12345680);
    const DramCoord b = m.decode(0x123456FF);  // same 128B line
    EXPECT_EQ(a, b);
}

TEST(AddressMapping, RowRunsShareARowThenSwitchBank)
{
    AddressMapping m(128, 1, 4, 2048);  // 16 lines per row
    // With one channel, lines 0..15 share (bank 0, row 0); lines
    // 16..31 move to bank 1.
    const DramCoord first = m.decode(0);
    const DramCoord last_in_row = m.decode(15 * 128);
    const DramCoord next_run = m.decode(16 * 128);
    EXPECT_EQ(first.bank, last_in_row.bank);
    EXPECT_EQ(first.row, last_in_row.row);
    EXPECT_NE(first.bank, next_run.bank);
}

TEST(AddressMapping, LinesPerRow)
{
    AddressMapping m(128, 8, 16, 2048);
    EXPECT_EQ(m.linesPerRow(), 16u);
}

// ---- bank -----------------------------------------------------------

TEST(DramBank, TracksOpenRowHitsAndMisses)
{
    DramBank bank;
    EXPECT_FALSE(bank.isOpenRow(5));
    EXPECT_FALSE(bank.access(5));  // miss opens the row
    EXPECT_TRUE(bank.isOpenRow(5));
    EXPECT_TRUE(bank.access(5));   // hit
    EXPECT_FALSE(bank.access(9));  // conflict
    EXPECT_EQ(bank.rowHits(), 1u);
    EXPECT_EQ(bank.rowMisses(), 2u);
}

TEST(DramBank, PrechargeClosesRow)
{
    DramBank bank;
    bank.access(1);
    bank.precharge();
    EXPECT_FALSE(bank.isOpenRow(1));
}

// ---- channel --------------------------------------------------------

/** Test helper: bindable Completion targets for request callbacks. */
struct Probe
{
    EventQueue *eq = nullptr;
    Cycle when = 0;
    int count = 0;
    std::vector<int> order;

    void stamp()
    {
        when = eq->now();
        ++count;
    }
    void bump() { ++count; }
    void push(std::uint64_t v)
    {
        order.push_back(static_cast<int>(v));
    }
};

struct ChannelFixture : public ::testing::Test
{
    ChannelFixture()
    {
        cfg.channels = 1;
        cfg.channel_bw = 64.0;       // 128B burst == 2 cycles
        cfg.banks_per_channel = 4;
        cfg.row_hit_latency = 10;
        cfg.row_miss_latency = 30;
        cfg.read_queue = 8;
        cfg.write_queue = 8;
        channel = std::make_unique<DramChannel>(
            eq, cfg, 128, Completion::bind<&Probe::bump>(&retries));
    }

    DramRequest
    read(unsigned bank, std::uint64_t row, Completion cb)
    {
        DramRequest r;
        r.bank = bank;
        r.row = row;
        r.type = AccessType::Read;
        r.on_done = cb;
        return r;
    }

    EventQueue eq;
    DramConfig cfg;
    Probe retries;  ///< counts the channel's retry notifications
    std::unique_ptr<DramChannel> channel;
};

TEST_F(ChannelFixture, SingleReadLatency)
{
    Probe p;
    p.eq = &eq;
    ASSERT_TRUE(channel->enqueue(
        read(0, 1, Completion::bind<&Probe::stamp>(&p))));
    eq.run();
    // Row miss: latency 30 + burst 2.
    EXPECT_EQ(p.when, 32u);
    EXPECT_EQ(channel->readsIssued(), 1u);
}

TEST_F(ChannelFixture, BurstsSerializeOnTheBus)
{
    // 6 reads to the same row: issue start times must be spaced by
    // the 2-cycle burst occupancy regardless of latency overlap.
    Probe p;
    p.eq = &eq;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(channel->enqueue(
            read(0, 1, Completion::bind<&Probe::stamp>(&p))));
    }
    eq.run();
    // First issues at 0 (miss, 30+2); the rest are row hits issued
    // every 2 cycles: last issue at 10, done 10+10+2 = 22... but the
    // first miss dominates: done at 32.
    EXPECT_GE(p.when, 30u);
    EXPECT_EQ(channel->busyCycles(), 12u);
    EXPECT_EQ(channel->readsIssued(), 6u);
}

/** Test helper: enqueues two follow-up reads when its first read
 * completes, exercising FR-FCFS while the bus is busy. */
struct FrFcfsDriver
{
    ChannelFixture *fx;
    Probe *probe;

    void onFirstDone()
    {
        // Two more while the first is in flight.
        ASSERT_TRUE(fx->channel->enqueue(fx->read(
            0, 9, Completion::bind<&Probe::push>(probe, 9))));
        ASSERT_TRUE(fx->channel->enqueue(fx->read(
            0, 1, Completion::bind<&Probe::push>(probe, 1))));
    }
};

TEST_F(ChannelFixture, FrFcfsPrefersRowHits)
{
    // Open row 1 in bank 0, then enqueue a conflicting request ahead
    // of a row-hit request: the hit must issue first.
    Probe p;
    p.eq = &eq;
    FrFcfsDriver driver{this, &p};
    ASSERT_TRUE(channel->enqueue(read(
        0, 1, Completion::bind<&FrFcfsDriver::onFirstDone>(&driver))));
    eq.run();
    ASSERT_EQ(p.order.size(), 2u);
    EXPECT_EQ(p.order[0], 1);  // row hit won
    EXPECT_EQ(p.order[1], 9);
    EXPECT_GT(channel->rowHitRate(), 0.0);
}

TEST_F(ChannelFixture, WritesArePostedAndDrainOpportunistically)
{
    Probe p;
    DramRequest w;
    w.bank = 0;
    w.row = 2;
    w.type = AccessType::Write;
    w.on_done = Completion::bind<&Probe::bump>(&p);
    ASSERT_TRUE(channel->enqueue(w));
    eq.run();
    EXPECT_EQ(p.count, 1);
    EXPECT_EQ(channel->writesIssued(), 1u);
}

/** Test helper: interleaves a write and a read while the bus is
 * busy with the first request. */
struct ReadPriorityDriver
{
    ChannelFixture *fx;
    Probe *probe;

    void onFirstDone()
    {
        DramRequest w;
        w.bank = 1;
        w.row = 7;
        w.type = AccessType::Write;
        w.on_done = Completion::bind<&Probe::push>(probe, 1);
        ASSERT_TRUE(fx->channel->enqueue(w));
        ASSERT_TRUE(fx->channel->enqueue(fx->read(
            2, 3, Completion::bind<&Probe::push>(probe, 2))));
    }
};

TEST_F(ChannelFixture, ReadsPrioritizedOverWritesBelowHighMark)
{
    Probe p;
    p.eq = &eq;
    ReadPriorityDriver driver{this, &p};
    // One write then one read, enqueued while the bus is busy with a
    // first read; the read must be served before the write.
    ASSERT_TRUE(channel->enqueue(read(
        0, 1,
        Completion::bind<&ReadPriorityDriver::onFirstDone>(&driver))));
    eq.run();
    ASSERT_EQ(p.order.size(), 2u);
    // Writes are posted (complete at issue), but issue order still
    // favors the read; its completion carries the read latency, so
    // check issue order via stats instead of completion order.
    EXPECT_EQ(channel->readsIssued(), 2u);
    EXPECT_EQ(channel->writesIssued(), 1u);
}

TEST_F(ChannelFixture, FullQueueRejectsAndRetries)
{
    // Fill the 8-entry read queue beyond capacity.
    Probe p;
    int rejected = 0;
    for (int i = 0; i < 12; ++i) {
        if (!channel->enqueue(
                read(0, 1, Completion::bind<&Probe::bump>(&p))))
            ++rejected;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(retries.count, 0);
    eq.run();
    EXPECT_GT(retries.count, 0);
    EXPECT_EQ(p.count, 12 - rejected);
}

// ---- memory controller ----------------------------------------------

TEST(MemoryController, CountsAndCompletesAccesses)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.dram.channels = 4;
    MemoryController mc(eq, cfg);

    Probe p;
    for (unsigned i = 0; i < 32; ++i) {
        mc.access(static_cast<Addr>(i) * cfg.line_size,
                  AccessType::Read,
                  Completion::bind<&Probe::bump>(&p));
    }
    mc.access(0, AccessType::Write, {});
    eq.run();
    EXPECT_EQ(p.count, 32);
    EXPECT_EQ(mc.reads(), 32u);
    EXPECT_EQ(mc.writes(), 1u);
    EXPECT_EQ(mc.bytesTransferred(), 33u * cfg.line_size);
}

TEST(MemoryController, StagingAbsorbsQueueOverflow)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.dram.channels = 1;
    cfg.dram.read_queue = 4;
    MemoryController mc(eq, cfg);

    // Far more requests than the channel queue holds; all must
    // eventually complete without caller-visible rejections.
    Probe p;
    for (unsigned i = 0; i < 200; ++i) {
        mc.access(static_cast<Addr>(i) * cfg.line_size,
                  AccessType::Read,
                  Completion::bind<&Probe::bump>(&p));
    }
    eq.run();
    EXPECT_EQ(p.count, 200);
}

TEST(MemoryController, StreamingEnjoysRowLocality)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.dram.channels = 2;
    MemoryController mc(eq, cfg);
    for (unsigned i = 0; i < 256; ++i) {
        mc.access(static_cast<Addr>(i) * cfg.line_size,
                  AccessType::Read, {});
    }
    eq.run();
    EXPECT_GT(mc.rowHitRate(), 0.7);
}

TEST(MemoryController, BandwidthBoundThroughput)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.dram.channels = 1;
    cfg.dram.channel_bw = 64.0;  // 2 cycles per 128B line
    MemoryController mc(eq, cfg);
    Probe p;
    p.eq = &eq;
    for (unsigned i = 0; i < 512; ++i) {
        mc.access(static_cast<Addr>(i) * cfg.line_size,
                  AccessType::Read,
                  Completion::bind<&Probe::stamp>(&p));
    }
    eq.run();
    // 512 lines * 2 cycles = 1024 cycles of bus occupancy minimum.
    EXPECT_GE(p.when, 1024u);
    // And not wildly more (row hits dominate; generous upper bound).
    EXPECT_LE(p.when, 1400u);
}

} // namespace
} // namespace carve
