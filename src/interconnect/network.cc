#include "interconnect/network.hh"

#include <string>
#include <utility>

#include "common/logging.hh"

namespace carve {

Network::Network(DomainEngine &engine, const LinkConfig &cfg,
                 unsigned num_gpus)
    : cfg_(cfg), num_gpus_(num_gpus)
{
    if (num_gpus == 0)
        fatal("Network: need at least one GPU");

    const unsigned cpu_domain = engine.systemDomain();
    gpu_links_.resize(static_cast<std::size_t>(num_gpus) * num_gpus);
    for (unsigned s = 0; s < num_gpus; ++s) {
        for (unsigned d = 0; d < num_gpus; ++d) {
            if (s == d)
                continue;
            gpu_links_[index(s, d)] = std::make_unique<Link>(
                engine, d,
                "gpu" + std::to_string(s) + "->gpu" +
                    std::to_string(d),
                cfg.gpu_gpu_bw, cfg.latency);
        }
    }
    for (unsigned g = 0; g < num_gpus; ++g) {
        to_cpu_.push_back(std::make_unique<Link>(
            engine, cpu_domain, "gpu" + std::to_string(g) + "->cpu",
            cfg.cpu_gpu_bw, cfg.latency));
        from_cpu_.push_back(std::make_unique<Link>(
            engine, g, "cpu->gpu" + std::to_string(g), cfg.cpu_gpu_bw,
            cfg.latency));
    }
}

std::size_t
Network::index(NodeId src, NodeId dst) const
{
    carve_assert(src < num_gpus_ && dst < num_gpus_ && src != dst);
    return static_cast<std::size_t>(src) * num_gpus_ + dst;
}

void
Network::send(NodeId src, NodeId dst, std::uint64_t bytes,
              Callback delivered)
{
    gpu_links_[index(src, dst)]->send(bytes, std::move(delivered));
}

void
Network::sendToCpu(NodeId gpu, std::uint64_t bytes, Callback delivered)
{
    carve_assert(gpu < num_gpus_);
    to_cpu_[gpu]->send(bytes, std::move(delivered));
}

void
Network::sendFromCpu(NodeId gpu, std::uint64_t bytes,
                     Callback delivered)
{
    carve_assert(gpu < num_gpus_);
    from_cpu_[gpu]->send(bytes, std::move(delivered));
}

const Link &
Network::link(NodeId src, NodeId dst) const
{
    return *gpu_links_[index(src, dst)];
}

std::uint64_t
Network::totalGpuGpuBytes() const
{
    std::uint64_t total = 0;
    for (const auto &l : gpu_links_) {
        if (l)
            total += l->bytesSent();
    }
    return total;
}

std::uint64_t
Network::totalCpuGpuBytes() const
{
    std::uint64_t total = 0;
    for (const auto &l : to_cpu_)
        total += l->bytesSent();
    for (const auto &l : from_cpu_)
        total += l->bytesSent();
    return total;
}

void
Network::registerStats(stats::StatGroup &g)
{
    // Source-level groups are shared across destinations; StatGroup
    // names are single segments, so "0.3" is group "0" > group "3".
    std::vector<stats::StatGroup *> src_groups(num_gpus_ + 1, nullptr);
    const auto srcGroup = [&](std::size_t s,
                              const std::string &name) {
        if (!src_groups[s]) {
            auto owned = std::make_unique<stats::StatGroup>(name, &g);
            src_groups[s] = owned.get();
            link_groups_.push_back(std::move(owned));
        }
        return src_groups[s];
    };
    const auto addLink = [&](stats::StatGroup *src,
                             const std::string &dst, Link &link) {
        auto owned = std::make_unique<stats::StatGroup>(dst, src);
        link.registerStats(*owned);
        link_groups_.push_back(std::move(owned));
    };

    for (unsigned s = 0; s < num_gpus_; ++s) {
        stats::StatGroup *src = srcGroup(s, std::to_string(s));
        for (unsigned d = 0; d < num_gpus_; ++d) {
            if (s == d)
                continue;
            addLink(src, std::to_string(d), *gpu_links_[index(s, d)]);
        }
        addLink(src, "cpu", *to_cpu_[s]);
    }
    stats::StatGroup *cpu = srcGroup(num_gpus_, "cpu");
    for (unsigned d = 0; d < num_gpus_; ++d)
        addLink(cpu, std::to_string(d), *from_cpu_[d]);
}

void
Network::instrument(trace::Session *session, std::uint32_t pid,
                    bool telemetry, audit::InflightTracker *audit)
{
    if (session)
        session->defineProcess(pid, "interconnect");
    std::uint32_t tid = 0;
    forEachLink([&](Link &l) {
        l.instrument(session, trace::makeTrack(pid, tid++), telemetry,
                     audit);
    });
}

} // namespace carve
