/**
 * @file
 * JSON renderer for the unified metrics registry: the flat
 * (dotted name -> value) representation embedded in schema-v2 sweep
 * results, and its inverse for baseline comparison. Kept in the
 * harness so the simulator core stays free of serialization concerns.
 */

#ifndef CARVE_HARNESS_STATS_JSON_HH
#define CARVE_HARNESS_STATS_JSON_HH

#include <vector>

#include "common/stats.hh"
#include "harness/json.hh"

namespace carve {
namespace harness {

/**
 * Render a flattened stat tree as one JSON object whose keys are the
 * dotted stat names in sorted order (byte-stable). Integral stats
 * serialize as JSON integers, derived ratios as doubles.
 */
json::Value statTreeToJson(const std::vector<stats::FlatStat> &flat);

/** Render a whole registry (flatten + statTreeToJson). */
json::Value statGroupToJson(const stats::StatGroup &root);

/** Inverse of statTreeToJson. Takes @p v by value and moves each
 * stat name out of it, so a caller that moves its tree in copies no
 * names. */
std::vector<stats::FlatStat> statTreeFromJson(json::Value v);

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_STATS_JSON_HH
