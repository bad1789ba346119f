#include "metrics.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},        {"rounds_per_s", "1/s"},    {"round_s.p50", "s"},
      {"round_s.p90", "s"},    {"cpu_s_per_round", "s"},   {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"traced.rounds_per_s", "1/s"},
        {"best_acc", "fraction"},
        {"wire_mb_per_round", "MB"},
        {"engine.pool_util", "fraction"},
        {"engine.speedup_4t", "x"},
        {"engine.eval_frac", "fraction"},
        {"engine.aggregate_frac", "fraction"},
        {"engine.dispatch_fail_frac", "fraction"},
        {"os.minflt_per_round", "count"},
        {"os.sys_frac", "fraction"},
        {"os.offcpu_frac", "fraction"},
        {"os.ivcsw_per_round", "count"},
    };
    for (const char* level : {"L1", "M1", "S1"}) {
      s.push_back({std::string("fl.local_train.samples_per_s.") + level, "1/s"});
    }
    for (const char* level : {"L1", "M1", "S1"}) {
      s.push_back({std::string("fl.evaluate.samples_per_s.") + level, "1/s"});
    }
    s.push_back({"fl.hetero_aggregate_ms", "ms"});
    s.push_back({"fl.shard_merge_ms", "ms"});
    for (const char* layer : {"u1", "u2", "u3", "u4", "u5", "u6", "u7", "cls"}) {
      s.push_back({std::string("nn.") + layer + ".fwd_us", "us"});
      s.push_back({std::string("nn.") + layer + ".bwd_us", "us"});
    }
    for (const char* kernel : {"gemm", "gemm_at", "gemm_bt"}) {
      s.push_back({std::string("tensor.") + kernel + ".gflops", "GFLOP/s"});
    }
    s.push_back({"tensor.im2col.gbps", "GB/s"});
    s.push_back({"tensor.col2im.gbps", "GB/s"});
    s.push_back({"prune.split_us", "us"});
    s.push_back({"rl.select_us", "us"});
    s.push_back({"data.materialize_client_us", "us"});
    for (const char* dir : {"encode", "decode"}) {
      for (const char* codec : {"fp16", "topk10"}) {
        s.push_back({std::string("net.") + dir + "_mbps." + codec, "MB/s"});
      }
    }
    s.push_back({"net.bytes_up_per_update", "bytes"});
    s.push_back({"net.bytes_down_per_dispatch", "bytes"});
    s.push_back({"compress.encode_update_us", "us"});
    return s;
  }();
  return specs;
}

namespace {
bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}
}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Result::record(const std::string& what,
                    const std::vector<std::string>& check_failures, std::size_t rounds) {
  attempted += rounds;
  for (const std::string& f : check_failures) failures.push_back(what + ": " + f);
  if (!check_failures.empty()) failed += rounds;
}

namespace {

void check_complete(const Result& result, const std::vector<MetricSpec>& specs) {
  std::set<std::string> expected;
  for (const MetricSpec& m : specs) {
    expected.insert(m.name);
    if (result.metrics.count(m.name) == 0) {
      throw std::logic_error("perfbench: metric " + m.name + " was not measured");
    }
  }
  for (const auto& [name, value] : result.metrics) {
    if (expected.count(name) == 0) {
      throw std::logic_error("perfbench: metric " + name + " is not registered");
    }
  }
}

}  // namespace

std::string result_json(const Result& result, const std::vector<MetricSpec>& specs) {
  check_complete(result, specs);
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", result.metrics.at(specs[i].name));
    out += (i ? ", \"" : "\"") + specs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void print_result(const Result& result, const std::vector<MetricSpec>& specs) {
  const std::string json = result_json(result, specs);
  for (const MetricSpec& m : specs) {
    const auto note = result.notes.find(m.name);
    std::printf("metric %-36s %14.6g %-8s %s\n", m.name.c_str(), result.metrics.at(m.name),
                m.unit.c_str(), note == result.notes.end() ? "" : note->second.c_str());
  }
  for (const std::string& f : result.failures) std::printf("FAILED CHECK: %s\n", f.c_str());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
