// Shared plumbing for the perfbench workloads: command-line arguments,
// timing, order statistics, the host fingerprint and the JSON result line.
//
// A workload fills a Result. End-to-end metrics come from an untraced
// run (--trace 0); per-layer metrics from a traced run (--trace 1), in
// which the workload times its own calls into each layer and reads the
// program's obs counters and histograms as deltas. Every metric a
// workload does not measure (its layer is not on the workload's path) is
// printed as 0 and named on an info line, so each run prints the same
// metric set.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Restricts this process (and every thread it starts afterwards) to the
/// first `n` CPUs it may run on; returns the CPUs kept, e.g. "0,1".
std::string pin_to_cpus(std::size_t n);

/// CPU time consumed so far by all threads of this process, seconds.
double process_cpu_seconds();

/// Quantile q in [0, 1] of `v` by linear interpolation between order
/// statistics (sorts a copy). 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// addr_map's gated rates and latency summarise many short batches by
/// the batch at the fast end: the 10th percentile of batch times. The
/// reference host alternates every few seconds between two speeds about
/// 1.45x apart (a fixed CPU loop takes 19-21 ms or 27-31 ms), so a median
/// falls in either state depending on their shares during the run; the
/// fast-end batch does not depend on those shares.
inline double fast_time(const std::vector<double>& times) {
  return quantile(times, 0.10);
}

/// Geometric mean of positive values; 0 if any value is not positive.
double geomean(const std::vector<double>& v);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// One benchmark result: the metrics (name -> value, unit), the
/// correctness tally, and informational lines printed before the JSON.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints "# name value unit" -- a named quantity outside the JSON
  /// metric set (the per-workload names the README tables use).
  void info_metric(const std::string& name, double value,
                   const std::string& unit);
  void info(const std::string& line) { info_.push_back(line); }

  /// Records `attempted` checked operations of which `failed` failed;
  /// the message of a failing record is printed (the first few only).
  void record(std::uint64_t attempted, std::uint64_t failed,
              const std::string& what);
  void check(bool ok, const std::string& what) {
    record(1, ok ? 0 : 1, what);
  }
  std::uint64_t failed() const { return failed_; }

  /// Prints the info lines and, last, the JSON result line carrying
  /// exactly the metrics in `specs`: any the workload did not measure
  /// (its layer is not on the workload's path) print as 0 and are named
  /// on an info line. A measured metric outside `specs`, or with another
  /// unit, is a programming error and fails the run.
  void print(const std::vector<MetricSpec>& specs);

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Reports setup_s: the median over the set-up repetitions of the CPU
/// time all threads spent in set-up. Set-up lasts milliseconds, and on a
/// shared host its wall time is mostly stalls of the host (the same
/// volunteer_loop set-up read 3-17 ms wall against 3.5-4.6 ms CPU); the
/// wall-clock median is printed beside it as setup_wall_s.
void report_setup(Result& result, const std::vector<double>& cpu_s,
                  const std::vector<double>& wall_s);

/// Host fingerprint (CPU model, nproc, compiler and flags, build type,
/// PFL_OBS / PFL_SIMD state, runtime SIMD backend) as one JSON object.
std::string fingerprint_json();

/// The workloads. Each runs set-up, measures for about args.seconds, and
/// checks its outputs into `result`.
void run_addr_map(const Args& args, Result& result);
void run_volunteer_loop(const Args& args, Result& result);

}  // namespace perfbench
