#pragma once
// Metric registry and result line. Every name here is listed, with the same
// unit, in the repository's BENCHMARK.json (checked by perfbench_test).

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Reported by an untraced run (--trace 0).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by a traced run (--trace 1).
const std::vector<MetricSpec>& per_layer_metrics();

/// Starts with a letter or digit; at most 64 of [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);
/// At most 16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

/// Outcome of one benchmark process.
struct Result {
  std::size_t attempted = 0;  // rounds (flushes) attempted
  std::size_t failed = 0;     // rounds of runs that threw or failed a check
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;  // sample counts etc., by metric

  /// Counts `rounds` attempted rounds of the operation `what`, and all of
  /// them as failed when `check_failures` is not empty.
  void record(const std::string& what, const std::vector<std::string>& check_failures,
              std::size_t rounds);
  bool correct() const { return failures.empty(); }
};

/// Prints one human-readable line per metric of `specs` (value, unit, note),
/// then the failed checks, then the one-line JSON result.
/// Throws std::logic_error when `result` lacks a metric of `specs` or holds
/// one that is not in it.
void print_result(const Result& result, const std::vector<MetricSpec>& specs);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& result, const std::vector<MetricSpec>& specs);

}  // namespace perfbench
