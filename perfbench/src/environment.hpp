#pragma once
// What a benchmark number depends on besides the code: the variables that
// change the measured program, and the host and build that produced it.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Environment variables (exact names or prefixes ending in '_') under which
/// a run measures a different program: profilers and trace or metrics sinks
/// add work to the hot path, snapshot/resume changes what a run does, the
/// AFL_COMPRESS_* knobs have no FlRunConfig field to pin them, and allocator
/// tuning alone moves 4-thread scaling from ~1.0x to ~1.9x.
const std::vector<std::string>& refused_variables();

/// The set variables of `environ` that refused_variables() matches.
std::vector<std::string> refused_in(char** environ);

struct HostRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string commit;  // as passed by run.py, e.g. "32e3597" or "32e3597-dirty"
  std::string source_digest;
  std::uint64_t seed = 0;
  std::string workload;
  bool trace = false;
};

HostRecord describe_host();

/// One JSON object line, printed before the metrics so two results can be
/// compared.
std::string host_json(const HostRecord& host);

}  // namespace perfbench
