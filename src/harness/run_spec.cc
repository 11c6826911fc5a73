#include "harness/run_spec.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace carve {
namespace harness {

namespace {

std::string
makeKey(const std::string &preset, const std::string &workload,
        std::uint64_t seed)
{
    return preset + "/" + workload + "/s" + std::to_string(seed);
}

/** Lowercase with all non-alphanumerics stripped ("CARVE-HWC" ->
 * "carvehwc") so preset aliases are punctuation-insensitive. */
std::string
canonical(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

} // namespace

std::string
RunSpec::key() const
{
    return makeKey(presetName(preset), workload.name, opts.seed);
}

std::string
RunResult::key() const
{
    return makeKey(preset, workload, seed);
}

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Watchdog: return "watchdog";
      case RunStatus::Failed: return "failed";
    }
    return "?";
}

RunStatus
parseRunStatus(const std::string &s)
{
    if (s == "ok")
        return RunStatus::Ok;
    if (s == "watchdog")
        return RunStatus::Watchdog;
    if (s == "failed")
        return RunStatus::Failed;
    fatal("unknown run status '%s'", s.c_str());
}

std::vector<Preset>
allPresets()
{
    return {Preset::SingleGpu, Preset::NumaGpu,
            Preset::NumaGpuMigration, Preset::NumaGpuReplRO,
            Preset::CarveNoCoherence, Preset::CarveSwc,
            Preset::CarveHwc, Preset::Ideal};
}

Preset
parsePresetName(const std::string &name)
{
    const std::string want = canonical(name);
    for (const Preset p : allPresets()) {
        if (want == canonical(presetName(p)))
            return p;
    }
    // Short aliases for the common command lines.
    if (want == "single" || want == "1gpu")
        return Preset::SingleGpu;
    if (want == "numa")
        return Preset::NumaGpu;
    if (want == "carve")
        return Preset::CarveHwc;

    std::string valid;
    for (const Preset p : allPresets()) {
        if (!valid.empty())
            valid += ", ";
        valid += presetName(p);
    }
    fatal("unknown preset '%s' (valid: %s)", name.c_str(),
          valid.c_str());
}

void
checkPresetOverrides(const std::vector<Preset> &presets,
                     const SystemConfig &base,
                     const std::vector<std::string> &overrides)
{
    // Keys match case-insensitively, as in applyOverride().
    std::vector<std::string> keys;
    for (const std::string &ov : overrides) {
        std::string &key = keys.emplace_back(ov.substr(0, ov.find('=')));
        for (char &c : key)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    }
    // toOverrides() walks one registry, so entry i names the same key
    // in both lists.
    const std::vector<ConfigOverride> asked = base.toOverrides();
    for (const Preset p : presets) {
        const std::vector<ConfigOverride> set =
            makePreset(p, base).toOverrides();
        for (std::size_t i = 0; i < asked.size(); ++i) {
            const std::string &key = asked[i].key;
            if (asked[i].value != set[i].value &&
                std::find(keys.begin(), keys.end(), key) != keys.end()) {
                fatal("--set %s=%s conflicts with preset %s, which sets "
                      "%s=%s",
                      key.c_str(), asked[i].value.c_str(), presetName(p),
                      key.c_str(), set[i].value.c_str());
            }
        }
    }
}

std::vector<RunSpec>
expandGrid(const std::vector<Preset> &presets,
           const std::vector<WorkloadParams> &workloads,
           const std::vector<std::uint64_t> &seeds,
           const SystemConfig &base, const RunOptions &opts)
{
    std::vector<RunSpec> specs;
    specs.reserve(presets.size() * workloads.size() * seeds.size());
    for (const Preset p : presets) {
        for (const auto &wl : workloads) {
            for (const std::uint64_t seed : seeds) {
                RunSpec s;
                s.preset = p;
                s.workload = wl;
                s.base = base;
                s.opts = opts;
                s.opts.seed = seed;
                specs.push_back(std::move(s));
            }
        }
    }
    return specs;
}

} // namespace harness
} // namespace carve
