/// \file build_info.hpp
/// Build/version metadata surfaced end-to-end: `--version` on every
/// CLI, the `meta.build` block of the pclass-scenarios-v3 report, the
/// `pclass_build_info` Prometheus gauge and the daemon's `read version`
/// handler. One source of truth so a scraped metric, a report artifact
/// and a CLI banner can always be traced to the same binary.
#pragma once

#include <string>

namespace pclass::common {

struct BuildInfo {
  /// Semantic-ish repo version; bumped per PR series, not per commit
  /// (the git sha is the per-commit identity).
  std::string version;
  /// Short git sha of the checkout the binary was configured from
  /// ("unknown" outside a git tree, e.g. a source tarball build).
  std::string git_sha;
  /// Compiler identification (from __VERSION__).
  std::string compiler;
  /// CMake build type (Release, RelWithDebInfo, Debug, ...).
  std::string build_type;
};

/// The metadata baked into this binary.
[[nodiscard]] const BuildInfo& build_info();

/// One-line banner: "<tool> <version> (<sha>, <build_type>, <compiler>)".
/// What every CLI prints for `--version`.
[[nodiscard]] std::string version_line(const std::string& tool);

}  // namespace pclass::common
