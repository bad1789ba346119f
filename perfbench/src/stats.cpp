#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double q) {
  if (n == 0 || !(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: empty sample or q outside (0, 1]");
  }
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - percentile_rank(n, q);
}

double percentile(std::vector<double> samples, double q) {
  const std::size_t rank = percentile_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

namespace {
double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

Usage sample_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  Usage d;
  d.wall_s = a.wall_s - b.wall_s;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.minflt = a.minflt - b.minflt;
  d.nivcsw = a.nivcsw - b.nivcsw;
  return d;
}

Usage& operator+=(Usage& t, const Usage& d) {
  t.wall_s += d.wall_s;
  t.user_s += d.user_s;
  t.sys_s += d.sys_s;
  t.minflt += d.minflt;
  t.nivcsw += d.nivcsw;
  return t;
}

double cpu_seconds(const Usage& d) { return d.user_s + d.sys_s; }

double sys_fraction(const Usage& d) {
  const double cpu = cpu_seconds(d);
  return cpu > 0.0 ? d.sys_s / cpu : 0.0;
}

double offcpu_fraction(const Usage& d, std::size_t threads) {
  const double capacity = d.wall_s * static_cast<double>(threads);
  return capacity > 0.0 ? 1.0 - cpu_seconds(d) / capacity : 0.0;
}

}  // namespace perfbench
