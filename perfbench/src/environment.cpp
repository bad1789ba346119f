#include "environment.hpp"

#include <unistd.h>

#include <fstream>
#include <string_view>

#include "obs/json.hpp"

namespace perfbench {

const std::vector<std::string>& refused_variables() {
  static const std::vector<std::string> names = {
      "AFL_PROFILE",   "AFL_PROF_",        "AFL_KERNEL_PROFILE", "AFL_TRACE_JSONL",
      "AFL_METRICS_JSONL", "AFL_HTTP_PORT", "AFL_SNAPSHOT",      "AFL_SNAPSHOT_",
      "AFL_RESUME",    "AFL_STOP_AFTER",   "AFL_COMPRESS_",      "MALLOC_",
      "GLIBC_TUNABLES", "LD_PRELOAD",
  };
  return names;
}

std::vector<std::string> refused_in(char** environ) {
  std::vector<std::string> hits;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::string_view name = entry.substr(0, entry.find('='));
    for (const std::string& r : refused_variables()) {
      const bool prefix = r.back() == '_';
      if (prefix ? name.substr(0, r.size()) == r : name == r) {
        hits.emplace_back(name);
        break;
      }
    }
  }
  return hits;
}

HostRecord describe_host() {
  HostRecord h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.cxx_flags = PERFBENCH_CXX_FLAGS;
  return h;
}

std::string host_json(const HostRecord& h) {
  using afl::obs::json_escape;
  return "{\"nproc\": " + std::to_string(h.nproc) + ", \"cpu\": \"" +
         json_escape(h.cpu_model) + "\", \"compiler\": \"" + json_escape(h.compiler) +
         "\", \"build_type\": \"" + json_escape(h.build_type) + "\", \"cxx_flags\": \"" +
         json_escape(h.cxx_flags) + "\", \"commit\": \"" + json_escape(h.commit) +
         "\", \"source_digest\": \"" + json_escape(h.source_digest) +
         "\", \"seed\": " + std::to_string(h.seed) + ", \"workload\": \"" +
         json_escape(h.workload) + "\", \"trace\": " + (h.trace ? "1" : "0") + "}";
}

}  // namespace perfbench
