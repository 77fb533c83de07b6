// addr_map: the paper's main use, address computation. One thread calls
// PairingFunction::pair_batch on seeded random coordinates in batches
// of 8192 for each core PF, then unpair_batch on the resulting
// (unsorted) addresses, and checks the round trip. Nearly all time is in
// the core kernels and the numtheory summatory engine.
//
// The host's CPU speed drifts over minutes (the same code read 17.7 and
// 23.8 M elements/s ten runs apart). So a fixed piece of CPU work with no
// library code in it (cpu_probe_ns) is timed between rounds and between
// set-up repetitions, and every batch and set-up time is scaled by the
// probe times around it to the reference probe time kReferenceProbeNs. A
// change to the library moves the batches and not the probe.
#include <random>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "harness.hpp"
#include "numtheory/summatory_engine.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using pfl::index_t;
using pfl::Point;

constexpr std::size_t kBatch = 8192;
/// Distinct input batches per PF; the measured loop cycles through them.
constexpr std::size_t kPoolBatches = 16;
/// Set-up is repeated this many times and its median reported.
constexpr int kSetupReps = 7;
/// Closed-form batches per PF per round (one hyperbolic batch costs
/// about as much as all of them together).
constexpr std::size_t kClosedRepsPerRound = 32;
/// Elements per batch compared against the scalar virtual API.
constexpr std::size_t kScalarSample = 16;
/// The probe time the gated figures are scaled to: about the median on
/// the reference host (Xeon, 4 vCPUs), so scaled and measured figures
/// read alike there.
constexpr double kReferenceProbeNs = 340000;

/// Coordinate ranges follow bench/throughput.cpp: aspect-2x3 stays in
/// its fast envelope, hyperbolic shells xy <= 10^6 stay inside the
/// summatory engine's table.
index_t coord_range(const std::string& name) {
  if (name == "hyperbolic") return 1000;
  if (name == "aspect-2x3") return 30000;
  return 1000000;
}

struct PfCase {
  std::string name;
  pfl::PfPtr pf;
  bool closed = true;
  std::vector<std::vector<index_t>> xs, ys;  // kPoolBatches x kBatch
  std::vector<index_t> z;                    // last pair_batch output
  std::vector<Point> back;                   // last unpair_batch output
  std::vector<double> pair_s, unpair_s;      // per-batch wall times
  std::vector<double> pair_scaled_s, unpair_scaled_s;  // scaled to the probe
  std::size_t next = 0;
};

std::vector<PfCase> make_cases(std::uint64_t seed) {
  std::vector<PfCase> cases;
  std::uint64_t salt = 0;
  for (const char* name :
       {"diagonal", "square-shell", "szudzik", "aspect-2x3", "hyperbolic"}) {
    PfCase c;
    c.name = name;
    c.pf = pfl::make_core_pf(name);
    c.closed = c.name != "hyperbolic";
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + ++salt);
    std::uniform_int_distribution<index_t> dist(1, coord_range(c.name));
    c.xs.assign(kPoolBatches, std::vector<index_t>(kBatch));
    c.ys.assign(kPoolBatches, std::vector<index_t>(kBatch));
    for (std::size_t b = 0; b < kPoolBatches; ++b)
      for (std::size_t i = 0; i < kBatch; ++i) {
        c.xs[b][i] = dist(rng);
        c.ys[b][i] = dist(rng);
      }
    c.z.resize(kBatch);
    c.back.resize(kBatch);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The CPU probe: a fixed multiply-xor-shift pass over an L1-resident
/// block, repeated; integer arithmetic like the batch kernels'. Returns
/// its wall time in ns.
double cpu_probe_ns() {
  constexpr std::size_t kWords = 2048;
  constexpr int kPasses = 1024;
  alignas(64) static std::uint64_t words[kWords];
  const auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) {
    for (std::size_t i = 0; i < kWords; ++i)
      words[i] = (words[i] * 0x9E3779B97F4A7C15ull + i) ^ (words[i] >> 29);
    asm volatile("" : : "r"(words) : "memory");
  }
  return static_cast<double>(ns_since(t0));
}

/// Scales the batch times of `c` from index `mark` on by `host`: the
/// probe time around them over kReferenceProbeNs.
void scale_batches(PfCase& c, std::size_t mark, double host) {
  for (std::size_t i = mark; i < c.pair_s.size(); ++i) {
    c.pair_scaled_s.push_back(c.pair_s[i] / host);
    c.unpair_scaled_s.push_back(c.unpair_s[i] / host);
  }
}

/// One pair_batch + unpair_batch of the case's next pool batch, timed
/// separately when `keep` is set, then the round-trip and scalar checks.
void run_batch(PfCase& c, bool keep, Result& result) {
  const std::size_t b = c.next;
  c.next = (c.next + 1) % kPoolBatches;
  const auto t0 = Clock::now();
  c.pf->pair_batch(c.xs[b], c.ys[b], c.z);
  const auto t1 = Clock::now();
  c.pf->unpair_batch(c.z, c.back);
  const auto t2 = Clock::now();
  if (keep) {
    c.pair_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    c.unpair_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < kBatch; ++i)
    bad += c.back[i] != Point{c.xs[b][i], c.ys[b][i]};
  result.record(kBatch, bad, c.name + ": unpair_batch(pair_batch(p)) != p");
  std::uint64_t scalar_bad = 0;
  for (std::size_t k = 0; k < kScalarSample; ++k) {
    const std::size_t i = (k * 509 + b * 131) % kBatch;
    scalar_bad += c.pf->pair(c.xs[b][i], c.ys[b][i]) != c.z[i] ||
                  c.pf->unpair(c.z[i]) != c.back[i];
  }
  result.record(kScalarSample, scalar_bad,
                c.name + ": batch result differs from scalar pair/unpair");
}

}  // namespace

void run_addr_map(const Args& args, Result& result) {
  if (args.trace) pfl::obs::TraceCollector::instance().enable();
  const pfl::obs::Snapshot obs_start = pfl::obs::snapshot();

  // Set-up, repeated: inputs from the seed, the summatory engine warmed
  // to cover every hyperbolic shell and address (a fresh engine each
  // time, so every repetition pays the warm-up; the first also warms the
  // process-wide engine the kernels use), and one batch per PF.
  std::vector<double> setup_cpu, setup_wall, ensure_s, setup_measured;
  std::vector<PfCase> cases;
  cpu_probe_ns();  // warm-up
  double probe_before = cpu_probe_ns();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    cases = make_cases(args.seed);
    const index_t shell_max = coord_range("hyperbolic") * coord_range("hyperbolic");
    const index_t z_max = cases.back().pf->pair(1, shell_max);
    const auto te = Clock::now();
    pfl::nt::SummatoryEngine fresh;
    fresh.ensure_shells(shell_max);
    fresh.ensure_summatory(z_max);
    if (rep == 0) {
      pfl::nt::SummatoryEngine::global().ensure_shells(shell_max);
      pfl::nt::SummatoryEngine::global().ensure_summatory(z_max);
    }
    ensure_s.push_back(seconds_since(te));
    for (PfCase& c : cases) run_batch(c, false, result);
    setup_measured.push_back(process_cpu_seconds() - c0);
    setup_wall.push_back(seconds_since(t0));
    const double probe_after = cpu_probe_ns();
    setup_cpu.push_back(setup_measured.back() * 2 * kReferenceProbeNs /
                        (probe_before + probe_after));
    probe_before = probe_after;
  }
  result.info_metric("setup_s_measured", median(setup_measured), "s");

  // Measured rounds: every closed-form PF runs kClosedRepsPerRound
  // batches, hyperbolic one, so each series gets comparable wall time.
  // The traced run also times the numtheory engine calls the hyperbolic
  // kernels make, on the same shells and addresses.
  const pfl::nt::SummatoryEngine::View view =
      pfl::nt::SummatoryEngine::global().view();
  std::vector<double> divisors_ns, bracket_ns;
  const pfl::obs::Snapshot obs_before = pfl::obs::snapshot();
  std::vector<double> probe_ns{cpu_probe_ns()};
  const auto t_start = Clock::now();
  std::size_t rounds = 0;
  while (rounds == 0 || seconds_since(t_start) < args.seconds) {
    std::vector<std::size_t> marks;
    for (PfCase& c : cases) {
      marks.push_back(c.pair_s.size());
      const std::size_t reps = c.closed ? kClosedRepsPerRound : 1;
      for (std::size_t r = 0; r < reps; ++r) run_batch(c, true, result);
    }
    probe_ns.push_back(cpu_probe_ns());
    const double host = (probe_ns[probe_ns.size() - 2] + probe_ns.back()) / 2 /
                        kReferenceProbeNs;
    for (std::size_t k = 0; k < cases.size(); ++k) scale_batches(cases[k], marks[k], host);
    ++rounds;
    if (args.trace) {
      const PfCase& h = cases.back();
      const std::size_t b = rounds % kPoolBatches;
      std::uint64_t sink = 0;
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i)
        sink += view.divisors(h.xs[b][i] * h.ys[b][i]).size();
      divisors_ns.push_back(static_cast<double>(ns_since(t0)) / kBatch);
      t0 = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) sink += view.bracket(h.z[i]).shell;
      bracket_ns.push_back(static_cast<double>(ns_since(t0)) / kBatch);
      result.check(sink != 0, "numtheory probes returned nothing");
    }
  }
  const double measured_s = seconds_since(t_start);
  const pfl::obs::Snapshot obs =
      pfl::obs::snapshot_delta(pfl::obs::snapshot(), obs_before);

  // The named rates, and the gated rate and latency, come from the scaled
  // batch times; the measured rate and the p99 from the times as taken.
  std::vector<double> pair_closed, unpair_closed, batch_ms, p99_ms;
  std::vector<double> measured_closed[2], measured_hyper;
  double pair_hyper = 0, unpair_hyper = 0;
  for (const PfCase& c : cases) {
    const double pair_rate = kBatch / fast_time(c.pair_scaled_s) / 1e6;
    const double unpair_rate = kBatch / fast_time(c.unpair_scaled_s) / 1e6;
    if (c.closed) {
      pair_closed.push_back(pair_rate);
      unpair_closed.push_back(unpair_rate);
    } else {
      pair_hyper = pair_rate;
      unpair_hyper = unpair_rate;
    }
    for (const auto* series : {&c.pair_scaled_s, &c.unpair_scaled_s})
      batch_ms.push_back(fast_time(*series) * 1e3);
    int direction = 0;
    for (const auto* series : {&c.pair_s, &c.unpair_s}) {
      p99_ms.push_back(quantile(*series, 0.99) * 1e3);
      const double rate = kBatch / fast_time(*series);
      if (c.closed) {
        measured_closed[direction++].push_back(rate);
      } else {
        measured_hyper.push_back(rate);
      }
    }
    result.info(c.name + ": " + std::to_string(c.pair_s.size()) +
                " pair + " + std::to_string(c.unpair_s.size()) +
                " unpair batches of " + std::to_string(kBatch));
    if (args.trace) {
      result.metric("core.pair_batch_ns." + c.name,
                    median(c.pair_s) * 1e9 / kBatch, "ns/elem");
      result.metric("core.unpair_batch_ns." + c.name,
                    median(c.unpair_s) * 1e9 / kBatch, "ns/elem");
    }
  }
  const double pair_closed_rate = geomean(pair_closed);
  const double unpair_closed_rate = geomean(unpair_closed);
  result.info_metric("pair_closed_melem_s", pair_closed_rate, "Melem/s");
  result.info_metric("unpair_closed_melem_s", unpair_closed_rate, "Melem/s");
  result.info_metric("pair_hyper_melem_s", pair_hyper, "Melem/s");
  result.info_metric("unpair_hyper_melem_s", unpair_hyper, "Melem/s");
  result.info_metric("batch_p99_ms", geomean(p99_ms), "ms");
  result.info_metric("throughput_measured_per_s",
                     geomean({geomean(measured_closed[0]), geomean(measured_closed[1]),
                              measured_hyper[0], measured_hyper[1]}),
                     "1/s");
  result.info_metric("cpu_probe_us", median(probe_ns) / 1e3, "us");
  result.info("measured " + std::to_string(rounds) + " rounds in " +
              std::to_string(measured_s) + " s");

  if (!args.trace) {
    report_setup(result, setup_cpu, setup_wall);
    result.metric("throughput_per_s",
                  1e6 * geomean({pair_closed_rate, unpair_closed_rate,
                                 pair_hyper, unpair_hyper}),
                  "1/s");
    result.metric("latency_ms", geomean(batch_ms), "ms");
    return;
  }

  const auto engine = static_cast<double>(
      obs.counter("pfl_core_batch_elems_engine_total"));
  const auto simd = static_cast<double>(
      obs.counter("pfl_core_batch_elems_simd_total"));
  const auto proven = static_cast<double>(
      obs.counter("pfl_core_batch_elems_proven_total"));
  const auto checked = static_cast<double>(
      obs.counter("pfl_core_batch_elems_checked_total"));
  const double all = engine + simd + proven + checked;
  result.metric("core.batch.fast_share",
                all > 0 ? (engine + simd + proven) / all : 0.0, "1");
  result.info("core.batch.fast_share base: engine " + std::to_string(engine) +
              " + simd " + std::to_string(simd) + " + proven " +
              std::to_string(proven) + " of " + std::to_string(all) +
              " elements (checked " + std::to_string(checked) + ")");
  result.metric("numtheory.ensure_s", median(ensure_s), "s");
  result.metric("numtheory.divisors_ns", median(divisors_ns), "ns/call");
  result.metric("numtheory.bracket_ns", median(bracket_ns), "ns/call");
  result.metric("obs.trace.spans_dropped",
                static_cast<double>(pfl::obs::snapshot().counter_delta(
                    obs_start, "pfl_obs_trace_dropped_total")),
                "count");
}

}  // namespace perfbench
