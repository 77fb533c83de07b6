// perfbench entry point:
//
//   perfbench --workload <addr_map|volunteer_loop>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the host fingerprint and informational lines ("# ..."), then as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when a correctness check failed, 2 on bad
// arguments or an unexpected error. See README.md.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/simd.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_ms", "ms"},
};

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> s;
  for (const char* pf :
       {"diagonal", "square-shell", "szudzik", "aspect-2x3", "hyperbolic"}) {
    s.push_back({std::string("core.pair_batch_ns.") + pf, "ns/elem"});
    s.push_back({std::string("core.unpair_batch_ns.") + pf, "ns/elem"});
  }
  const std::vector<MetricSpec> rest = {
      {"core.batch.fast_share", "1"},
      {"numtheory.ensure_s", "s"},
      {"numtheory.divisors_ns", "ns/call"},
      {"numtheory.bracket_ns", "ns/call"},
      {"apf.pair_ns", "ns/call"},
      {"apf.unpair_ns", "ns/call"},
      {"wbc.audit_ns", "ns/call"},
      {"wbc.checkpoint_bytes", "bytes"},
      {"storage.crc64_ns_per_kb", "ns/KiB"},
      {"net.client.get_task_us.p50", "us"},
      {"net.client.get_task_us.p99", "us"},
      {"net.client.submit_us.p50", "us"},
      {"net.client.submit_us.p99", "us"},
      {"net.client.heartbeat_us.p50", "us"},
      {"net.client.heartbeat_us.p99", "us"},
      {"net.server.service_us", "us"},
      {"net.server.busy_share", "1"},
      {"net.wire.encode_ns", "ns/frame"},
      {"net.wire.decode_ns", "ns/frame"},
      {"net.transport_us", "us"},
      {"net.client.retries_per_rpc", "1"},
      {"net.client.rejections_per_rpc", "1"},
      {"net.server.frames_rejected", "count"},
      {"obs.trace.overhead", "1"},
      {"obs.trace.spans_dropped", "count"},
  };
  s.insert(s.end(), rest.begin(), rest.end());
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<addr_map|volunteer_loop> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::string pin_to_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  cpu_set_t keep;
  CPU_ZERO(&keep);
  std::string kept;
  for (int cpu = 0; cpu < CPU_SETSIZE && n > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &keep);
    kept += (kept.empty() ? "" : ",") + std::to_string(cpu);
    --n;
  }
  if (sched_setaffinity(0, sizeof(keep), &keep) != 0)
    throw std::runtime_error("sched_setaffinity failed");
  return kept;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::info_metric(const std::string& name, double value,
                         const std::string& unit) {
  info_.push_back(name + " " + fmt_number(value) + " " + unit);
}

void Result::record(std::uint64_t attempted, std::uint64_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  if (failed == 0) return;
  if (failed_ < 10)
    info_.push_back("CHECK FAILED (" + std::to_string(failed) + "x): " + what);
  failed_ += failed;
}

void Result::print(const std::vector<MetricSpec>& specs) {
  std::string unmeasured;
  std::string json = "{";
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    const auto it = metrics_.find(spec.name);
    if (it == metrics_.end()) {
      unmeasured += (unmeasured.empty() ? "" : " ") + spec.name;
    } else {
      if (it->second.unit != spec.unit)
        check(false, "metric " + spec.name + " measured in " +
                         it->second.unit + ", expected " + spec.unit);
      value = it->second.value;
      metrics_.erase(it);
    }
    json += (json.size() > 1 ? ", " : "") + std::string("\"") + spec.name +
            "\": {\"value\": " + fmt_number(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
  }
  json += "}";
  for (const auto& [name, value] : metrics_)
    check(false, "metric " + name + " is not in this run's metric set");
  if (!unmeasured.empty())
    info_.push_back("not on this workload's path (printed as 0): " +
                    unmeasured);
  for (const std::string& line : info_) std::printf("# %s\n", line.c_str());
  const double ratio = attempted_ == 0 ? 0.0
                                       : static_cast<double>(failed_) /
                                             static_cast<double>(attempted_);
  std::printf("# failed_ratio %s 1 (%llu failed / %llu attempted)\n",
              fmt_number(ratio).c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed_ == 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
}

void report_setup(Result& result, const std::vector<double>& cpu_s,
                  const std::vector<double>& wall_s) {
  result.metric("setup_s", median(cpu_s), "s");
  result.info_metric("setup_wall_s", median(wall_s), "s");
  result.info("set-up repeated " + std::to_string(cpu_s.size()) + " times");
}

std::string fingerprint_json() {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\""
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
     << ", \"flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"contract_checks\": " << PFL_CONTRACT_CHECKS
     << ", \"pfl_obs\": " << PFL_OBS_ENABLED
     << ", \"pfl_simd\": " << PFL_SIMD_ENABLED
     << ", \"simd_backend\": \"" << pfl::simd::active_isa() << "\"}";
  return os.str();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0)
        return usage("bad --seconds (want 0 < s <= 120)");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Result result;
  std::printf("# fingerprint %s\n", fingerprint_json().c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  try {
    if (args.workload == "addr_map") {
      run_addr_map(args, result);
    } else if (args.workload == "volunteer_loop") {
      run_volunteer_loop(args, result);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (!args.trace) result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  result.print(args.trace ? per_layer_specs() : kEndToEnd);
  return result.failed() == 0 ? 0 : 1;
}
