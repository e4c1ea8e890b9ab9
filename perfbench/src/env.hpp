// The environment stamp every result carries, and the guard against
// HCUBE_* overrides (HCUBE_NO_PIN, HCUBE_CHECKSUM, HCUBE_PLAN_COMPACT):
// any of them would silently measure a different program, so the
// benchmark refuses to run while one is set.
#pragma once

#include "stats.hpp"

#include <string>
#include <vector>

namespace perfbench {

/// Names of the set environment variables that start with "HCUBE_".
[[nodiscard]] std::vector<std::string> hcube_overrides();

/// The host's CPU ticks now, from /proc/stat (zeros when unreadable).
[[nodiscard]] HostTicks host_ticks();

/// One-line JSON object: CPU model, nproc, affinity mask, compiler and
/// flags, build type, git sha, checksum dispatch target.
[[nodiscard]] std::string env_stamp_json(const std::string& git_sha);

} // namespace perfbench
