#pragma once
// Sample statistics and getrusage() deltas used by every benchmark metric.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it (q in (0, 1]). Throws std::invalid_argument on an empty
/// sample or q outside (0, 1].
double percentile(std::vector<double> samples, double q);

/// 1-based rank percentile() picks for a sample of n: ceil(q * n).
std::size_t percentile_rank(std::size_t n, double q);

/// Samples strictly above the percentile's rank: n - percentile_rank(n, q).
/// The guide for reporting a timing is to quote the highest percentile with
/// at least ten samples beyond it, so p90 needs n >= 100.
std::size_t samples_beyond(std::size_t n, double q);

/// Median of a non-empty sample (nearest rank, q = 0.5).
double median(std::vector<double> samples);

/// Process resource usage at one instant (getrusage(RUSAGE_SELF)), plus the
/// wall clock.
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double nivcsw = 0.0;  // involuntary context switches
};

Usage sample_usage();

/// Field-wise after - before.
Usage operator-(const Usage& after, const Usage& before);
/// Field-wise sum, to total the deltas of several intervals.
Usage& operator+=(Usage& total, const Usage& delta);

/// CPU seconds (user + sys) of a delta.
double cpu_seconds(const Usage& d);
/// Share of CPU time spent in the kernel; 0 when no CPU time elapsed.
double sys_fraction(const Usage& d);
/// Share of the threads' wall time not spent on a CPU:
/// 1 - cpu / (wall * threads). Negative when more threads ran than counted.
double offcpu_fraction(const Usage& d, std::size_t threads);

}  // namespace perfbench
