#include "harness/stats_json.hh"

namespace carve {
namespace harness {

json::Value
statTreeToJson(const std::vector<stats::FlatStat> &flat)
{
    json::Members members;
    members.reserve(flat.size());
    for (const auto &f : flat) {
        if (f.integral)
            members.emplace_back(f.name, f.u64);
        else
            members.emplace_back(f.name, f.dbl);
    }
    return json::Value(std::move(members));
}

json::Value
statGroupToJson(const stats::StatGroup &root)
{
    return statTreeToJson(stats::flattenStats(root));
}

std::vector<stats::FlatStat>
statTreeFromJson(json::Value v)
{
    json::Members members = std::move(v).asObject();
    std::vector<stats::FlatStat> out;
    out.reserve(members.size());
    for (auto &[name, value] : members) {
        stats::FlatStat &f = out.emplace_back();
        f.name = std::move(name);
        if (value.kind() == json::Value::Kind::Int) {
            f.integral = true;
            f.u64 = static_cast<std::uint64_t>(value.asInt());
        } else {
            f.integral = false;
            f.dbl = value.asDouble();
        }
    }
    return out;
}

} // namespace harness
} // namespace carve
