/// \file build_info.hpp
/// Build/version metadata surfaced end-to-end: `--version` on every
/// CLI, the `build` block of the scenario, serve and live-stats
/// reports, the `pclass_build_info` Prometheus gauge and the daemon's
/// `read version` handler. One source of truth so a scraped metric, a
/// report artifact and a CLI banner can always be traced to the same
/// binary.
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

/// Write version, git_sha, compiler and build_type as keys of the open
/// JSON object of \p w (a workload::JsonWriter).
template <class JsonWriter>
void write_build_fields(JsonWriter& w) {
  const BuildInfo& b = build_info();
  w.key("version").value(b.version);
  w.key("git_sha").value(b.git_sha);
  w.key("compiler").value(b.compiler);
  w.key("build_type").value(b.build_type);
}

/// One-line banner: "<tool> <version> (<sha>, <build_type>, <compiler>)".
/// What every CLI prints for `--version`.
[[nodiscard]] std::string version_line(const std::string& tool);

}  // namespace pclass::common
