/**
 * @file
 * Layer replays of the traced run. Some layers are reached only
 * inside MultiGpuSystem::run(); for each of them a replay feeds the
 * first accesses of sweep's own generated traces through the
 * component's public functions, built with the preset's geometry, and
 * reports host nanoseconds per call (one value per repetition; the
 * report takes the median).
 *
 * CTAs are placed round-robin over GPUs and SMs here; the simulator's
 * CTA scheduler decides placement in a real run, so the replays price
 * the calls, not the exact access interleaving.
 */

#include <algorithm>

#include "bench.hh"
#include "cache/mshr.hh"
#include "cache/tag_array.hh"
#include "coherence/imst.hh"
#include "common/domain_engine.hh"
#include "common/event_queue.hh"
#include "core/system_preset.hh"
#include "dramcache/alloy_cache.hh"
#include "interconnect/network.hh"
#include "mem/memory_controller.hh"
#include "numa/page_manager.hh"
#include "tlb/tlb.hh"
#include "workloads/synthetic.hh"

namespace perfbench {

using namespace carve;

namespace {

/** Accesses replayed per workload, and repetitions per replay. */
constexpr std::size_t kAccessesPerWorkload = 40000;
constexpr int kReps = 5;
/** Accesses between two PageManager::commitWindow calls. */
constexpr std::size_t kAccessesPerWindow = 256;

struct Access
{
    Addr line;
    AccessType type;
    NodeId gpu;
    SmId sm;
};

/** The first accesses of sweep's traces (kernel 0, CTA-major). */
std::vector<Access>
sweepAccesses(std::uint64_t seed, const SystemConfig &cfg)
{
    std::vector<Access> out;
    for (const char *name : kSweepWorkloads) {
        const WorkloadParams p = suiteAt(name, kSweepInstsPerWarp);
        const SyntheticWorkload wl(p, cfg.line_size, seed);
        const std::size_t start = out.size();
        WarpInstruction inst;
        for (CtaId cta = 0; out.size() - start < kAccessesPerWorkload;
             ++cta) {
            for (WarpId w = 0; w < p.warps_per_cta; ++w) {
                for (std::uint64_t i = 0; i < p.insts_per_warp; ++i) {
                    wl.instruction(0, cta % p.ctas, w, i, inst);
                    for (unsigned l = 0; l < inst.num_lines; ++l) {
                        out.push_back(Access{
                            inst.lines[l], inst.type,
                            static_cast<NodeId>(cta % cfg.num_gpus),
                            static_cast<SmId>((cta / cfg.num_gpus) %
                                              cfg.core.sms_per_gpu)});
                    }
                }
            }
        }
    }
    return out;
}

/** ns per call of @p body, kReps times; @p body returns the number
 * of calls it made. */
template <class Body>
Value
perCallNs(Body &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
        const Clock::time_point t0 = Clock::now();
        const std::size_t calls = body();
        ns.push_back(secondsSince(t0) * 1e9 /
                     static_cast<double>(std::max<std::size_t>(calls, 1)));
    }
    return toArray(ns);
}

} // namespace

Value
runLayerReplays(std::uint64_t seed)
{
    const SystemConfig base = SystemConfig{}.scaled(kMemoryScale);
    const SystemConfig carve_cfg = makePreset(Preset::CarveHwc, base);
    const SystemConfig repl_cfg = makePreset(Preset::NumaGpuReplRO, base);

    const std::vector<Access> acc = sweepAccesses(seed, carve_cfg);
    const std::size_t n = acc.size();

    Value d{json::Members{}};
    d.set("accesses", static_cast<std::uint64_t>(n));
    std::uint64_t sink = 0;

    // Trace generation: the same instructions the accesses came from.
    d.set("gen_ns_per_inst", perCallNs([&] {
              std::size_t insts = 0;
              WarpInstruction inst;
              for (const char *name : kSweepWorkloads) {
                  const WorkloadParams p =
                      suiteAt(name, kSweepInstsPerWarp);
                  const SyntheticWorkload wl(p, carve_cfg.line_size, seed);
                  for (std::size_t k = 0; k < kAccessesPerWorkload; ++k) {
                      const std::uint64_t i = k % p.insts_per_warp;
                      const std::uint64_t wi = k / p.insts_per_warp;
                      wl.instruction(0, wi / p.warps_per_cta % p.ctas,
                                     static_cast<WarpId>(wi % p.warps_per_cta),
                                     i, inst);
                      sink += inst.num_lines;
                      ++insts;
                  }
              }
              return insts;
          }));

    // L1 probes; L1 misses probe L2 (both with the preset geometry).
    d.set("tag_ns_per_probe", perCallNs([&] {
              TagArray l1(carve_cfg.l1.size, carve_cfg.l1.ways,
                          carve_cfg.line_size);
              TagArray l2(carve_cfg.l2.size, carve_cfg.l2.ways,
                          carve_cfg.line_size);
              std::size_t probes = 0;
              for (const Access &a : acc) {
                  ++probes;
                  if (l1.lookup(a.line) != TagArray::no_line)
                      continue;
                  l1.insert(a.line, false);
                  ++probes;
                  if (l2.lookup(a.line) == TagArray::no_line)
                      l2.insert(a.line, false);
              }
              return probes;
          }));

    // MSHR file: allocate every access, complete the oldest entry
    // once half the registers are live (one op == one call).
    d.set("mshr_ns_per_op", perCallNs([&] {
              MshrFile mshrs(carve_cfg.l2.mshrs);
              std::vector<Addr> fifo;
              std::size_t head = 0;
              std::size_t mshr_ops = 0;
              for (const Access &a : acc) {
                  ++mshr_ops;
                  if (mshrs.allocate(a.line, Completion{}) ==
                      MshrOutcome::NewEntry)
                      fifo.push_back(a.line);
                  if (mshrs.size() * 2 >= mshrs.capacity()) {
                      mshrs.complete(fifo[head++]);
                      ++mshr_ops;
                  }
              }
              while (head < fifo.size()) {
                  mshrs.complete(fifo[head++]);
                  ++mshr_ops;
              }
              return mshr_ops;
          }));

    d.set("tlb_ns_per_translate", perCallNs([&] {
              TlbHierarchy tlb(carve_cfg.tlb, carve_cfg.core.sms_per_gpu,
                               carve_cfg.page_size);
              for (const Access &a : acc)
                  sink += tlb.translate(a.sm, a.line).latency;
              return n;
          }));

    d.set("rdc_ns_per_probe", perCallNs([&] {
              AlloyCache rdc(carve_cfg.rdc.size, carve_cfg.line_size);
              for (const Access &a : acc) {
                  if (rdc.lookup(a.line, 0) != RdcLookup::Hit)
                      rdc.insert(a.line, 0, false, a.gpu);
              }
              return n;
          }));

    // DRAM: accesses in batches of 64, each batch drained through
    // the controller's own event queue (its scheduling included).
    d.set("dram_ns_per_access", perCallNs([&] {
              EventQueue eq;
              MemoryController mc(eq, carve_cfg);
              std::size_t i = 0;
              for (const Access &a : acc) {
                  mc.access(a.line, a.type, Completion{});
                  if (++i % 64 == 0)
                      eq.run();
              }
              eq.run();
              return n;
          }));

    d.set("link_ns_per_packet", perCallNs([&] {
              DomainEngine engine(carve_cfg.num_gpus,
                                  DomainEngine::lookaheadWindow(carve_cfg),
                                  SimEngine::Serial, 1);
              Network net(engine, carve_cfg.link, carve_cfg.num_gpus);
              for (const Access &a : acc) {
                  const NodeId dst = static_cast<NodeId>(
                      (a.gpu + 1 + (a.line >> 7) % (carve_cfg.num_gpus - 1)) %
                      carve_cfg.num_gpus);
                  net.send(a.gpu, dst, carve_cfg.line_size, {});
              }
              return n;
          }));

    d.set("imst_ns_per_access", perCallNs([&] {
              Imst imst(0);
              bool inval = false;
              for (const Access &a : acc) {
                  imst.onAccess(a.line, a.gpu, a.type, inval);
                  sink += inval;
              }
              return n;
          }));

    // PageManager: record + route per access in the GPU's domain
    // shard, commitWindow at the barrier every kAccessesPerWindow.
    std::vector<double> commit_us;
    d.set("numa_ns_per_access", perCallNs([&] {
              PageManager pm(repl_cfg, true, false);
              Cycle tick = 0;
              double commit_s = 0.0;
              std::size_t windows = 0;
              for (std::size_t i = 0; i < n; ++i) {
                  const Access &a = acc[i];
                  engine_ctx::current_shard = a.gpu;
                  pm.recordAccess(a.line, a.gpu, a.type, tick);
                  sink += pm.route(a.line, a.gpu, a.type, tick);
                  ++tick;
                  if ((i + 1) % kAccessesPerWindow == 0) {
                      engine_ctx::current_shard = engine_ctx::barrier_shard;
                      const Clock::time_point t0 = Clock::now();
                      pm.commitWindow(tick);
                      commit_s += secondsSince(t0);
                      ++windows;
                  }
              }
              engine_ctx::current_shard = engine_ctx::barrier_shard;
              commit_us.push_back(commit_s * 1e6 /
                                  static_cast<double>(windows));
              return n;
          }));
    d.set("numa_commit_us_per_window", toArray(commit_us));

    // Event queue: schedule one event per access at a trace-derived
    // delay, then run them all.
    d.set("eventq_ns_per_event", perCallNs([&] {
              EventQueue eq;
              std::uint64_t fired = 0;
              for (const Access &a : acc) {
                  eq.schedule(static_cast<Cycle>((a.line >> 7) % 997),
                              [&fired] { ++fired; });
              }
              eq.run();
              sink += fired;
              return n;
          }));

    // Written out so the replayed calls' results stay live.
    d.set("sink", sink);
    return d;
}

} // namespace perfbench
