// volunteer_loop: the paper's Section 4 volunteer loop over loopback. An
// in-process net::TaskService (T# APF, kFirstFree) is driven closed-loop
// by 3 client threads, each with one persistent NetClient and 32
// multiplexed VolunteerSessions kept alive for the whole run. Every
// session loops get-task -> submit(task_checksum), with a heartbeat every
// 16 of its tasks. The measured work is a fixed number of phases, sized
// from --seconds at a nominal rate, each a fixed RPC count per thread and
// separated by a barrier at which nothing is in flight. Fixed work keeps
// the run's state (and so its memory) independent of its speed. Rates
// are taken per phase and latency percentiles per window, and summarised
// over phases or windows, so a few disturbed ones do not move them.
//
// The host's kernel path (send, wake-up, context switch, receive) changes
// speed by up to 1.5x within seconds, with no change in plain CPU loops,
// and an RPC is mostly kernel path. So a benchmark-owned loopback echo
// probe, with no library code in it, is timed between phases and between
// set-up repetitions, and each phase's rate and latency, and each set-up
// time, are scaled by the probe round trips around it to the reference
// round trip kReferenceRttNs. In 5-seed trials on the
// reference host the measured rate's interquartile range was 0.13-0.19 of
// its median and the scaled rate's 0.015. A change to the library moves
// the phases and not the probe.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apf/tsharp.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/task_service.hpp"
#include "net/wire.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "storage/snapshot.hpp"

namespace perfbench {

namespace {

using pfl::index_t;
namespace net = pfl::net;
namespace wbc = pfl::wbc;

constexpr std::size_t kClientThreads = 3;
constexpr std::size_t kCpus = 1;
constexpr std::size_t kSessionsPerThread = 32;
constexpr std::uint64_t kHeartbeatEvery = 16;
/// RPCs each client thread completes per phase.
constexpr std::size_t kRpcsPerPhase = 2048;
/// Phases per run = --seconds x this rate / RPCs per phase.
constexpr double kNominalRpcPerSecond = 60000;
/// Consecutive completions (all clients) per latency window; a window's
/// p99 has 20 samples beyond it.
constexpr std::size_t kLatencyWindow = 2048;
constexpr int kSetupReps = 100;
/// Round trips per kernel-path probe, run before every phase and after
/// the last; and before every set-up repetition and after the last.
constexpr int kProbeTrips = 512;
constexpr int kSetupProbeTrips = 128;
/// The probe round trip the gated figures are scaled to: about the median
/// on the reference host (Xeon, 4 vCPUs), so scaled and measured figures
/// read alike there.
constexpr double kReferenceRttNs = 12000;

enum Method { kGetTask = 0, kSubmit = 1, kHeartbeat = 2, kMethods = 3 };
const char* const kMethodNames[kMethods] = {"get_task", "submit", "heartbeat"};

/// One completed RPC: when it completed (ns since the run's epoch) and
/// how long it took, first send to final verified reply.
struct Sample {
  std::uint64_t done_ns;
  double latency_ns;
};

struct Credit {
  wbc::TaskIndex task;
  wbc::VolunteerId volunteer;
};

/// One client thread's persistent connection, sessions and tallies.
struct Client {
  net::NetClient conn;
  std::vector<std::unique_ptr<net::VolunteerSession>> sessions;
  std::vector<std::uint64_t> tasks_done;  // per session, for heartbeats
  std::size_t cursor = 0;
  std::vector<Sample> samples;               // every RPC, in order
  std::vector<std::size_t> phase_end;        // samples size after each phase
  std::vector<double> method_ns[kMethods];   // traced phases only
  std::vector<Credit> credits;
  std::uint64_t failed_calls = 0;
};

/// A started service with every client connected and every session
/// joined -- everything the measured phases need.
struct Fleet {
  std::unique_ptr<net::TaskService> service;
  std::vector<std::unique_ptr<Client>> clients;
};

Fleet set_up(std::uint64_t seed) {
  Fleet fleet;
  fleet.service = std::make_unique<net::TaskService>(
      std::make_shared<pfl::apf::TSharpApf>(), wbc::AssignmentPolicy::kFirstFree);
  if (!fleet.service->start())
    throw pfl::Error("volunteer_loop: cannot bind 127.0.0.1");
  const std::uint16_t port = fleet.service->port();
  std::mt19937_64 rng(seed);
  // Seeded volunteer identities (distinct: a random base plus the slot)
  // and speeds; the retry policy's jitter is seeded per run too.
  const wbc::VolunteerId id_base = 1 + (rng() >> 24);
  std::uniform_int_distribution<std::uint64_t> speed(500, 2000);
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    auto client = std::make_unique<Client>();
    if (!client->conn.connect_to(port, 2000))
      throw pfl::Error("volunteer_loop: connect failed");
    for (std::size_t s = 0; s < kSessionsPerThread; ++s) {
      net::RetryPolicy policy;
      policy.seed = seed * 0x100000001B3ull + t * kSessionsPerThread + s;
      policy.base_backoff_ms = 1;
      policy.max_backoff_ms = 20;
      auto session = std::make_unique<net::VolunteerSession>(
          client->conn, port, id_base + t * kSessionsPerThread + s,
          speed(rng), policy);
      if (!session->join()) throw pfl::Error("volunteer_loop: join failed");
      client->sessions.push_back(std::move(session));
    }
    client->tasks_done.assign(kSessionsPerThread, 0);
    fleet.clients.push_back(std::move(client));
  }
  return fleet;
}

/// A loopback TCP echo pair owned by the benchmark: one blocking
/// connection to an echo thread of this process, on the same CPUs as the
/// volunteer loop. Its round trip is the host's cost for the kernel path
/// every RPC takes (send, wakeup, context switch, receive), with no
/// library code in it.
class KernelProbe {
 public:
  KernelProbe() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool ok =
        listener >= 0 &&
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        (client_ = ::socket(AF_INET, SOCK_STREAM, 0)) >= 0 &&
        ::connect(client_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        (server_ = ::accept(listener, nullptr, nullptr)) >= 0;
    if (listener >= 0) ::close(listener);
    if (!ok) {
      close_all();
      throw pfl::Error("volunteer_loop: cannot open the loopback probe");
    }
    const int one = 1;
    ::setsockopt(client_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(server_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    echo_ = std::thread([fd = server_] {
      char buf[kMessage];
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0 || ::write(fd, buf, static_cast<std::size_t>(n)) != n) return;
      }
    });
  }
  KernelProbe(const KernelProbe&) = delete;
  KernelProbe& operator=(const KernelProbe&) = delete;
  ~KernelProbe() {
    ::shutdown(client_, SHUT_RDWR);
    echo_.join();
    close_all();
  }

  /// Mean ns of `trips` round trips of one RPC-sized message.
  double round_trip_ns(int trips) {
    char buf[kMessage] = {};
    const auto t0 = Clock::now();
    for (int i = 0; i < trips; ++i) {
      buf[0] = static_cast<char>(i);
      if (::write(client_, buf, kMessage) != static_cast<ssize_t>(kMessage))
        throw pfl::Error("volunteer_loop: probe write failed");
      for (std::size_t got = 0; got < kMessage;) {
        const ssize_t n = ::read(client_, buf + got, kMessage - got);
        if (n <= 0) throw pfl::Error("volunteer_loop: probe read failed");
        got += static_cast<std::size_t>(n);
      }
      if (buf[0] != static_cast<char>(i))
        throw pfl::Error("volunteer_loop: probe echoed the wrong message");
    }
    return static_cast<double>(ns_since(t0)) / trips;
  }

 private:
  /// Within the workload's frames: 28 (untraced get-task) to 52 bytes.
  static constexpr std::size_t kMessage = 40;

  void close_all() {
    if (client_ >= 0) ::close(client_);
    if (server_ >= 0) ::close(server_);
    client_ = server_ = -1;
  }

  int client_ = -1;
  int server_ = -1;
  std::thread echo_;
};

/// Runs sessions round-robin until `rpcs` RPCs completed: get-task,
/// submit, and every kHeartbeatEvery tasks of a session a heartbeat.
void run_phase(Client& c, std::size_t rpcs, bool traced,
               Clock::time_point epoch) {
  std::size_t done = 0;
  const auto timed = [&](Method m, const auto& call) {
    const auto t0 = Clock::now();
    const bool ok = call();
    const auto t1 = Clock::now();
    using std::chrono::nanoseconds;
    const auto ns = static_cast<double>(
        std::chrono::duration_cast<nanoseconds>(t1 - t0).count());
    c.samples.push_back({static_cast<std::uint64_t>(
                             std::chrono::duration_cast<nanoseconds>(t1 - epoch).count()),
                         ns});
    if (traced) c.method_ns[m].push_back(ns);
    ++done;
    if (!ok) ++c.failed_calls;
    return ok;
  };
  while (done < rpcs) {
    const std::size_t s = c.cursor;
    c.cursor = (c.cursor + 1) % c.sessions.size();
    net::VolunteerSession& session = *c.sessions[s];
    wbc::TaskAssignment task;
    std::uint64_t lease_ms = 0;
    if (!timed(kGetTask, [&] { return session.fetch_task(task, lease_ms); }))
      continue;
    wbc::SubmitStatus status{};
    const bool ok = timed(kSubmit, [&] {
      return session.submit(task.task, net::task_checksum(task.task), &status);
    });
    if (ok && wbc::submit_accepted(status))
      c.credits.push_back({task.task, session.id()});
    if (++c.tasks_done[s] % kHeartbeatEvery == 0) {
      index_t renewed = 0;
      timed(kHeartbeat, [&] { return session.heartbeat(renewed); });
    }
  }
  c.phase_end.push_back(c.samples.size());
}

/// Statistics of one kind of phase (untraced or traced): the rate of
/// each phase, and latency percentiles of each window of kLatencyWindow
/// consecutive completions from all clients. Rates and medians are kept
/// both as measured and scaled to the reference probe round trip.
struct Windows {
  std::vector<double> phase_rate;  // RPC/s
  std::vector<double> scaled_rate;
  std::vector<double> p50_ns;
  std::vector<double> scaled_p50_ns;
  std::vector<double> p99_ns;
  std::uint64_t rpcs = 0;
  double wall_s = 0;
  double latency_sum_ns = 0;

  /// `host` is the phase's probe round trip over kReferenceRttNs: above 1
  /// on a host slower than the reference.
  void add_phase(std::vector<Sample> phase, double wall, double host) {
    phase_rate.push_back(static_cast<double>(phase.size()) / wall);
    scaled_rate.push_back(phase_rate.back() * host);
    wall_s += wall;
    std::sort(phase.begin(), phase.end(), [](const Sample& a, const Sample& b) {
      return a.done_ns < b.done_ns;
    });
    for (std::size_t lo = 0; lo + kLatencyWindow <= phase.size(); lo += kLatencyWindow) {
      std::vector<double> lat;
      for (std::size_t i = lo; i < lo + kLatencyWindow; ++i) lat.push_back(phase[i].latency_ns);
      p50_ns.push_back(quantile(lat, 0.50));
      scaled_p50_ns.push_back(p50_ns.back() / host);
      p99_ns.push_back(quantile(lat, 0.99));
    }
    rpcs += phase.size();
    for (const Sample& s : phase) latency_sum_ns += s.latency_ns;
  }
};

struct CodecNs {
  double encode = 0;
  double decode = 0;
};

/// ns per frame to encode the workload's request frames (with the trace
/// context a traced client attaches) and to decode its response frames
/// through FrameReader, as the client does once each per RPC.
CodecNs measure_codec(Result& result) {
  CodecNs ns;
  constexpr int kFrames = 1 << 17;
  const net::TraceContext ctx{0x1234567890ABCDEFull, 0x0FEDCBA987654321ull};
  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (int i = 0; i < kFrames; ++i) {
    const auto v = static_cast<wbc::VolunteerId>(i);
    switch (i % 3) {
      case 0: sink += net::encode_get_task(v, ctx).size(); break;
      case 1: sink += net::encode_submit(v, v * 7, v * 13, 0, ctx).size(); break;
      default: sink += net::encode_heartbeat(v, ctx).size(); break;
    }
  }
  ns.encode = static_cast<double>(ns_since(t0)) / kFrames;

  std::vector<std::string> responses;
  for (int i = 0; i < 3 * 64; ++i) {
    const auto v = static_cast<std::uint64_t>(i);
    switch (i % 3) {
      case 0:
        responses.push_back(net::encode_frame(net::MsgType::kTask, {v, 3, v, 800}));
        break;
      case 1:
        responses.push_back(net::encode_frame(net::MsgType::kSubmitAck, {0}));
        break;
      default:
        responses.push_back(net::encode_frame(net::MsgType::kHeartbeatAck, {1}));
        break;
    }
  }
  net::FrameReader reader;
  net::Frame frame;
  std::uint64_t bad = 0;
  t0 = Clock::now();
  for (int i = 0; i < kFrames; ++i) {
    reader.feed(responses[static_cast<std::size_t>(i) % responses.size()]);
    bad += reader.take(frame) != net::DecodeStatus::kFrame;
    sink += frame.words.size();
  }
  ns.decode = static_cast<double>(ns_since(t0)) / kFrames;
  result.record(kFrames, bad, "FrameReader refused a well-formed frame");
  result.check(sink != 0, "codec probe produced nothing");
  return ns;
}

/// T# pair and inverse on the run's credited tasks, ns per call.
void measure_apf(const Fleet& fleet, Result& result) {
  const pfl::apf::TSharpApf apf;
  std::vector<wbc::TaskIndex> tasks;
  for (const auto& c : fleet.clients)
    for (const Credit& cr : c->credits) tasks.push_back(cr.task);
  std::vector<pfl::Point> points(tasks.size());
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < tasks.size(); ++i) points[i] = apf.unpair(tasks[i]);
  const double unpair_ns = static_cast<double>(ns_since(t0));
  std::uint64_t bad = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < tasks.size(); ++i)
    bad += apf.pair(points[i].x, points[i].y) != tasks[i];
  const double pair_ns = static_cast<double>(ns_since(t0));
  const double n = tasks.empty() ? 1.0 : static_cast<double>(tasks.size());
  result.metric("apf.unpair_ns", unpair_ns / n, "ns/call");
  result.metric("apf.pair_ns", pair_ns / n, "ns/call");
  result.record(tasks.size(), bad, "T#(T#^-1(task)) != task");
}

/// Size of the quiesced FrontEnd's checkpoint and CRC-64 cost over it.
void measure_checkpoint(const wbc::FrontEnd& fe, Result& result) {
  std::ostringstream out;
  fe.checkpoint(out);
  const std::string bytes = out.str();
  const auto t0 = Clock::now();
  const std::uint64_t crc = pfl::storage::crc64(bytes);
  const double ns = static_cast<double>(ns_since(t0));
  result.metric("wbc.checkpoint_bytes", static_cast<double>(bytes.size()), "bytes");
  result.metric("storage.crc64_ns_per_kb",
                ns / (static_cast<double>(bytes.size()) / 1024.0), "ns/KiB");
  result.check(crc != 0, "checkpoint CRC-64 is zero");
}

}  // namespace

void run_volunteer_loop(const Args& args, Result& result) {
  auto& tracer = pfl::obs::TraceCollector::instance();
  tracer.set_id_seed(args.seed | 1);
  const pfl::obs::Snapshot obs_start = pfl::obs::snapshot();

  // The server loop, the 3 clients and the probe share one CPU, so no
  // RPC waits for an idle vCPU to wake: under a hypervisor that wake-up
  // costs tens of microseconds that depend on the host's load.
  result.info("pinned to CPU " + pin_to_cpus(kCpus));
  KernelProbe probe;
  probe.round_trip_ns(kProbeTrips);  // warm-up

  // Set-up, repeated: service start, connects and joins. The last fleet
  // is kept for the measured phases. Set-up is mostly RPCs (96 joins), so
  // each repetition is scaled like a phase, by the probes on either side.
  std::vector<double> setup_cpu, setup_wall, setup_measured;
  double setup_probe_ns = probe.round_trip_ns(kSetupProbeTrips);
  Fleet fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (fleet.service) {
      for (auto& c : fleet.clients)
        for (auto& s : c->sessions) s->leave();
      fleet.clients.clear();
      fleet.service->stop();
    }
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    fleet = set_up(args.seed + static_cast<std::uint64_t>(rep));
    setup_measured.push_back(process_cpu_seconds() - c0);
    setup_wall.push_back(seconds_since(t0));
    const double after_ns = probe.round_trip_ns(kSetupProbeTrips);
    setup_cpu.push_back(setup_measured.back() * 2 * kReferenceRttNs /
                        (setup_probe_ns + after_ns));
    setup_probe_ns = after_ns;
  }
  result.info_metric("setup_s_measured", median(setup_measured), "s");

  // Measured phases. The traced run alternates untraced and traced
  // phases (tracer armed, buffers cleared while nothing is in flight), so
  // the tracing overhead is a same-run ratio. The kernel-path probe runs
  // before every phase and after the last, while nothing is in flight.
  std::vector<double> probe_ns{probe.round_trip_ns(kProbeTrips)};
  const auto phases = std::max<std::size_t>(
      4, 2 * static_cast<std::size_t>(args.seconds * kNominalRpcPerSecond /
                                      (2.0 * kClientThreads * kRpcsPerPhase)));
  for (auto& c : fleet.clients) {
    // Reserved up front: growing these mid-run would show in the memory
    // metric as reallocation spikes.
    c->samples.reserve(phases * (kRpcsPerPhase + 2));
    c->credits.reserve(phases * (kRpcsPerPhase / 2 + 1));
    if (args.trace)
      for (auto& m : c->method_ns) m.reserve(phases * (kRpcsPerPhase / 2 + 2));
  }
  const auto epoch = Clock::now();
  std::barrier sync(static_cast<std::ptrdiff_t>(kClientThreads + 1));
  bool stop = false;
  bool traced = false;
  std::vector<std::thread> workers;
  for (auto& c : fleet.clients) {
    workers.emplace_back([&, client = c.get()] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop) return;
        run_phase(*client, kRpcsPerPhase, traced, epoch);
        sync.arrive_and_wait();
      }
    });
  }
  std::vector<bool> phase_traced;
  std::vector<double> phase_wall;
  pfl::obs::Snapshot service_before;
  double service_ns = 0, service_count = 0;
  const auto t_start = Clock::now();
  for (std::size_t phase = 0; phase < phases; ++phase) {
    traced = args.trace && phase % 2 == 1;
    phase_traced.push_back(traced);
    if (traced) {
      tracer.clear();
      tracer.enable();
      service_before = pfl::obs::snapshot();
    } else {
      tracer.disable();
    }
    sync.arrive_and_wait();
    const auto t0 = Clock::now();
    sync.arrive_and_wait();
    const double wall = seconds_since(t0);
    phase_wall.push_back(wall);
    probe_ns.push_back(probe.round_trip_ns(kProbeTrips));
    if (traced) {
      pfl::obs::Snapshot d =
          pfl::obs::snapshot_delta(pfl::obs::snapshot(), service_before);
      const pfl::obs::HistogramValue& h = d.histograms["pfl_net_request_service_ns"];
      service_ns += static_cast<double>(h.sum);
      service_count += static_cast<double>(h.count);
    }
  }
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& w : workers) w.join();
  tracer.disable();
  const double measured_s = seconds_since(t_start);

  net::SessionStats stats;
  for (auto& c : fleet.clients)
    for (auto& s : c->sessions) {
      stats.requests += s->stats().requests;
      stats.retries += s->stats().retries;
      stats.typed_rejections += s->stats().typed_rejections;
      stats.reconnects += s->stats().reconnects;
      s->leave();
    }
  fleet.service->stop();

  // Checks on the quiesced FrontEnd: every credited task's stored result
  // is task_checksum(task), and its audit names the submitter (FrontEnd::
  // audit takes the owner from volunteer_of_task).
  wbc::FrontEnd& fe = fleet.service->frontend();
  std::uint64_t credits = 0, bad_result = 0, bad_owner = 0, failed_calls = 0;
  std::uint64_t audit_ns = 0;
  std::vector<double> method_ns[kMethods];
  for (auto& c : fleet.clients) {
    failed_calls += c->failed_calls;
    const auto t_audit = Clock::now();
    for (const Credit& cr : c->credits) {
      const wbc::AuditOutcome out = fe.audit(cr.task, net::task_checksum(cr.task));
      bad_result += !out.correct;
      bad_owner += out.volunteer != cr.volunteer;
    }
    audit_ns += ns_since(t_audit);
    credits += c->credits.size();
    for (int m = 0; m < kMethods; ++m)
      method_ns[m].insert(method_ns[m].end(), c->method_ns[m].begin(),
                          c->method_ns[m].end());
  }
  result.record(credits, bad_result, "stored result != task_checksum(task)");
  result.record(credits, bad_owner, "audit (via volunteer_of_task) names another volunteer");

  // Rates per phase and latency percentiles per window, each phase scaled
  // by the mean of the probes on either side of it. The gated rate and p50
  // are medians of the scaled values; the p99 is the median over windows
  // as measured.
  Windows win[2];
  for (std::size_t p = 0; p < phases; ++p) {
    std::vector<Sample> phase;
    for (const auto& c : fleet.clients) {
      const std::size_t lo = p == 0 ? 0 : c->phase_end[p - 1];
      phase.insert(phase.end(), c->samples.begin() + static_cast<std::ptrdiff_t>(lo),
                   c->samples.begin() + static_cast<std::ptrdiff_t>(c->phase_end[p]));
    }
    win[phase_traced[p]].add_phase(std::move(phase), phase_wall[p],
                                   (probe_ns[p] + probe_ns[p + 1]) / 2 / kReferenceRttNs);
  }
  result.record(win[0].rpcs + win[1].rpcs, failed_calls,
                "RPC abandoned after retries (failed_calls)");

  const double rpc_per_s = median(win[0].scaled_rate);
  const double p50_ms = median(win[0].scaled_p50_ns) / 1e6;
  result.info_metric("rpc_per_s", median(win[0].phase_rate), "1/s");
  result.info_metric("rpc_p50_ms", median(win[0].p50_ns) / 1e6, "ms");
  result.info_metric("rpc_p99_ms", median(win[0].p99_ns) / 1e6, "ms");
  result.info_metric("rpc_per_s_wall", static_cast<double>(win[0].rpcs) / win[0].wall_s,
                     "1/s");
  result.info_metric("probe_rtt_us", median(probe_ns) / 1e3, "us");
  result.info_metric("rpc_per_s_scaled", rpc_per_s, "1/s");
  result.info_metric("rpc_p50_ms_scaled", p50_ms, "ms");
  result.info("untraced: " + std::to_string(win[0].rpcs) + " RPCs in " +
              std::to_string(win[0].phase_rate.size()) + " phases and " +
              std::to_string(win[0].p99_ns.size()) + " latency windows of " +
              std::to_string(kLatencyWindow) + "; " + std::to_string(credits) +
              " tasks credited; measured " + std::to_string(measured_s) + " s");

  if (!args.trace) {
    report_setup(result, setup_cpu, setup_wall);
    result.metric("throughput_per_s", rpc_per_s, "1/s");
    result.metric("latency_ms", p50_ms, "ms");
    return;
  }

  for (int m = 0; m < kMethods; ++m) {
    const std::string base = std::string("net.client.") + kMethodNames[m] + "_us";
    result.metric(base + ".p50", quantile(method_ns[m], 0.50) / 1e3, "us");
    result.metric(base + ".p99", quantile(method_ns[m], 0.99) / 1e3, "us");
    result.info(base + " samples " + std::to_string(method_ns[m].size()));
  }
  const CodecNs codec = measure_codec(result);
  result.metric("net.wire.encode_ns", codec.encode, "ns/frame");
  result.metric("net.wire.decode_ns", codec.decode, "ns/frame");

  // Latency budget of a traced RPC: client codec (one request encode and
  // one response decode) + server service time + transport, the
  // send/poll/wakeup residual. A negative residual would mean the parts
  // overlap or were mismeasured, so it fails the run.
  const double rpc_mean_ns =
      win[1].rpcs > 0 ? win[1].latency_sum_ns / static_cast<double>(win[1].rpcs) : 0.0;
  const double service_mean_ns = service_count ? service_ns / service_count : 0.0;
  const double codec_ns = codec.encode + codec.decode;
  const double transport_ns = rpc_mean_ns - service_mean_ns - codec_ns;
  result.metric("net.server.service_us", service_mean_ns / 1e3, "us");
  result.metric("net.transport_us", transport_ns / 1e3, "us");
  result.info("traced RPC budget: mean " + std::to_string(rpc_mean_ns / 1e3) +
              " us = client codec " + std::to_string(codec_ns / 1e3) +
              " + server service " + std::to_string(service_mean_ns / 1e3) +
              " + transport " + std::to_string(transport_ns / 1e3) + " us");
  result.check(transport_ns >= 0, "RPC latency budget has a negative residual");
  result.metric("net.server.busy_share",
                win[1].wall_s > 0 ? service_ns / 1e9 / win[1].wall_s : 0.0, "1");
  result.info("net.server.busy_share base: " + std::to_string(service_ns / 1e9) +
              " s service over " + std::to_string(win[1].wall_s) +
              " s traced wall time, " + std::to_string(service_count) +
              " requests served");
  const double traced_rpc_per_s = median(win[1].scaled_rate);
  result.metric("obs.trace.overhead", traced_rpc_per_s / rpc_per_s, "1");
  result.info("obs.trace.overhead base: traced " +
              std::to_string(traced_rpc_per_s) + " scaled RPC/s over " +
              std::to_string(win[1].phase_rate.size()) + " phases / untraced " +
              std::to_string(rpc_per_s) + " scaled RPC/s over " +
              std::to_string(win[0].phase_rate.size()) + " phases");
  const double requests = static_cast<double>(stats.requests);
  result.metric("net.client.retries_per_rpc",
                static_cast<double>(stats.retries) / requests, "1");
  result.metric("net.client.rejections_per_rpc",
                static_cast<double>(stats.typed_rejections) / requests, "1");
  result.info("net.client ratios base: " + std::to_string(stats.retries) +
              " retries, " + std::to_string(stats.typed_rejections) +
              " typed rejections, " + std::to_string(stats.reconnects) +
              " reconnects over " + std::to_string(stats.requests) + " RPCs");
  result.metric("net.server.frames_rejected",
                static_cast<double>(fleet.service->stats().frames_rejected),
                "count");
  result.metric("wbc.audit_ns",
                credits ? static_cast<double>(audit_ns) / credits : 0.0,
                "ns/call");
  measure_apf(fleet, result);
  measure_checkpoint(fe, result);
  result.metric("obs.trace.spans_dropped",
                static_cast<double>(pfl::obs::snapshot().counter_delta(
                    obs_start, "pfl_obs_trace_dropped_total")),
                "count");
}

}  // namespace perfbench
