/**
 * @file
 * Content-addressed job identity. A job's key is the FNV-1a 64-bit
 * hash of its canonical carve-job/3 serialization
 * (jobSpecToJson().dump(0), which fixes member order, sorts
 * configuration keys and folds the engine overrides into the
 * configuration), rendered as 16 lowercase hex digits. Two JobSpecs
 * describing the same simulation hash identically no matter how (or
 * in what order) their configs were assembled or how their engine was
 * chosen; any semantic difference — one override value, a different
 * seed, telemetry or host-stats on vs off, a bumped kJobSchema —
 * yields a different key. The key doubles as the result-cache file
 * name.
 */

#ifndef CARVE_SERVICE_JOB_KEY_HH
#define CARVE_SERVICE_JOB_KEY_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "service/protocol.hh"

namespace carve {
namespace service {

/** FNV-1a 64-bit over @p bytes. */
std::uint64_t fnv1a64(std::string_view bytes);

/** 16-hex-digit content key of @p spec (see file comment). */
std::string jobKey(const JobSpec &spec);

/** True when @p key looks like a jobKey() product (16 hex digits). */
bool isJobKey(const std::string &key);

} // namespace service
} // namespace carve

#endif // CARVE_SERVICE_JOB_KEY_HH
