// perfbench measure: runs one workload of the repo benchmark and writes its
// raw measurements as one JSON document (run.py reduces them to metrics).
//
// Usage: perfbench_measure --workload NAME --seed N --seconds S --trace 0|1
//                          --out PATH
//
// Every workload has the same three phases:
//   setup     generate the inputs and bring a device to the fork point;
//             repeated kSetupReps times (run.py reports the median)
//   measured  forked trials, repeated until --seconds have elapsed; every
//             trial starts from the same fork point, so its simulated
//             results must repeat exactly
//   check     the correctness gate and the end-state digests
// With --trace 1 it also records host-time spans around each call
// into a simulator layer and runs the per-layer probes (the per-page
// nand/ftl/controller split, a sampled replay and a traced replay).
// The simulator runs single-threaded throughout.
#include <sys/resource.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"
#include "src/host/multi_queue.hpp"
#include "src/host/tenant.hpp"
#include "src/obs/histogram.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"
#include "src/util/parallel.hpp"
#include "src/workload/generator.hpp"

using namespace rps;

namespace {

constexpr int kSetupReps = 3;
constexpr int kSplitReps = 3;

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

volatile std::uint64_t calibration_result = 0;

/// Host seconds of a fixed, benchmark-owned kernel: hash-map updates and a
/// sort over a fixed pseudo-random stream, a mix of branches, cache misses
/// and allocation like the simulator's own. Timed next to every measured
/// repetition so run.py can scale host times to a reference machine speed:
/// on a shared host the simulator slows by tens of percent for seconds at a
/// time, and the kernel slows with it.
double calibrate() {
  const double t0 = now_s();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1 << 16);
  std::vector<std::uint64_t> sorted;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t h = 0;
  for (int i = 0; i < 400'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto [it, inserted] = table.try_emplace(x % 400'000, x);
    if (!inserted) {
      h += it->second;
      it->second = x;
    }
    if ((x & 3) == 0) sorted.push_back(x);
  }
  std::sort(sorted.begin(), sorted.end());
  h += sorted[sorted.size() / 2];
  const double elapsed = now_s() - t0;
  calibration_result = h;  // observable, so the work cannot be optimised away
  return elapsed;
}

/// Brackets timed work with calibrate() runs: next() returns the mean
/// kernel time before and after the work since the previous call. Off
/// (always 0) in a traced run, which reports no end-to-end host times and
/// whose spans should cover the whole run.
class Calibrator {
 public:
  explicit Calibrator(bool on) : on_(on) {}
  void start() {
    if (on_) last_ = calibrate();
  }
  double next() {
    if (!on_) return 0.0;
    const double before = last_;
    last_ = calibrate();
    return (before + last_) / 2.0;
  }

 private:
  bool on_;
  double last_ = 0.0;
};

/// Host-time spans recorded around this program's calls into the simulator's
/// layers. A span's name is "<layer>.<call>"; parent -1 is a root. Off
/// (every call a no-op) unless the run is traced.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Spans(bool on) : on_(on) {}

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One measured-phase repetition.
struct Rep {
  double seconds = 0.0;  // whole repetition: fork, work, audit
  double work_s = 0.0;   // the replay or sweep call itself
  double pages = 0.0;    // simulated host pages in the repetition
  double trials = 0.0;   // forked trials in the repetition
  double calibration_s = 0.0;  // calibrate() around the repetition
};

/// Everything this program reports; run.py turns it into metrics.
struct Report {
  std::map<std::string, double> sizes;   // workload sizes (manifest)
  std::vector<double> setup_s;
  std::vector<double> setup_calibration_s;  // calibrate() around each set-up
  std::vector<Rep> reps;
  std::map<std::string, double> sim;     // deterministic simulated results
  std::map<std::string, double> layers;  // per-layer values (traced run)
  std::map<std::string, bool> checks;    // correctness gate
  std::map<std::string, std::string> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool ok) {
    auto [it, inserted] = checks.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Attribution conservation: the per-cause split sums exactly to the
/// device's op counters.
bool attribution_conserved(const nand::NandDevice& device) {
  const nand::AttributionCounters& a = device.attribution();
  const nand::OpCounters ops = device.total_counters();
  return a.total_lsb_programs() == ops.lsb_programs &&
         a.total_msb_programs() == ops.msb_programs &&
         a.total_erases() == ops.erases &&
         a.meta_programs + a.total_stream_programs() == ops.programs();
}

/// Cell busy time of an op mix over units x makespan (simulated time).
double chip_util(const nand::OpCounters& ops, const nand::TimingSpec& t,
                 std::uint32_t units, Microseconds makespan_us) {
  if (makespan_us <= 0) return 0.0;
  const double busy = static_cast<double>(ops.reads) * static_cast<double>(t.read_us) +
                      static_cast<double>(ops.lsb_programs) * static_cast<double>(t.program_lsb_us) +
                      static_cast<double>(ops.msb_programs) * static_cast<double>(t.program_msb_us) +
                      static_cast<double>(ops.erases) * static_cast<double>(t.erase_us);
  return busy / (static_cast<double>(units) * static_cast<double>(makespan_us));
}

void add_op_counts(Report& report, const nand::OpCounters& ops) {
  report.layers["nand.lsb_programs"] = static_cast<double>(ops.lsb_programs);
  report.layers["nand.msb_programs"] = static_cast<double>(ops.msb_programs);
  report.layers["nand.reads"] = static_cast<double>(ops.reads);
  report.layers["nand.erases"] = static_cast<double>(ops.erases);
}

void add_ftl_counts(Report& report, const ftl::FtlStats& s,
                    const nand::AttributionCounters& attribution) {
  report.layers["ftl.gc_copy_pages"] = static_cast<double>(s.gc_copy_pages);
  report.layers["ftl.backup_pages"] = static_cast<double>(s.backup_pages);
  report.layers["ftl.foreground_gc_blocks"] = static_cast<double>(s.foreground_gc_blocks);
  report.layers["ftl.background_gc_blocks"] = static_cast<double>(s.background_gc_blocks);
  const std::uint64_t host = s.host_lsb_writes + s.host_msb_writes;
  report.layers["core.lsb_write_share"] =
      host == 0 ? 0.0 : static_cast<double>(s.host_lsb_writes) / static_cast<double>(host);
  report.layers["core.parity_programs"] =
      static_cast<double>(attribution.programs(nand::WriteCause::kParity));
}

/// Simulated latency percentiles and their sample count. Exact where the
/// samples are at hand; qos-flood's come from the frontend's log-bucketed
/// histograms.
void add_latency(Report& report, double p50, double p999, std::size_t samples) {
  report.sim["sim_lat_p50_us"] = p50;
  report.sim["sim_lat_p999_us"] = p999;
  report.sim["sim_lat_samples"] = static_cast<double>(samples);
}

/// p50/p99 of the controller write FIFO depth over a sampler's samples.
void add_queue_depths(Report& report, const obs::StateSampler& sampler) {
  std::vector<double> depth;
  depth.reserve(sampler.samples().size());
  for (const obs::StateSample& s : sampler.samples()) {
    depth.push_back(static_cast<double>(s.queued_write_ops));
  }
  report.layers["controller.write_queue_depth_p50"] = percentile(depth, 50.0);
  report.layers["controller.write_queue_depth_p99"] = percentile(depth, 99.0);
}

/// Order-sensitive digest of a replay's simulated results.
std::uint64_t result_digest(const sim::SimResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t v :
       {r.requests, r.read_requests, r.write_requests, r.pages_read, r.pages_written,
        r.read_errors, static_cast<std::uint64_t>(r.makespan_us),
        static_cast<std::uint64_t>(r.busy_us), r.idle_windows, r.erases,
        r.ops.reads, r.ops.lsb_programs, r.ops.msb_programs, r.ops.erases,
        r.ftl_stats.gc_copy_pages, r.ftl_stats.backup_pages}) {
    h = mix(h, v);
  }
  for (const char c : r.latency_hist_us.to_json()) h = mix(h, static_cast<unsigned char>(c));
  return h;
}

// ---------------------------------------------------------------------------
// ntrx-saturated / webserver-idle: Simulator replays on the bench geometry.

struct ReplayParams {
  workload::Preset preset;
  std::uint64_t requests;  // per trial
  /// Report latency from issue rather than arrival. A trace that outruns
  /// the device backlogs the closed loop, and arrival-based latency then
  /// measures the backlog's length (it swings by a third across seeds).
  bool latency_from_issue;
};

/// Drive a standalone NandDevice with `ops`' program/read mix: whole
/// blocks programmed in the RPS LSB-first order flexFTL uses (each erased
/// once full), reads interleaved at the run's read:program ratio. Returns
/// the number of device ops issued.
std::uint64_t drive_nand(const ftl::FtlConfig& config, const nand::OpCounters& ops) {
  nand::NandDevice device(config.geometry, config.timing, nand::SequenceKind::kRps);
  const nand::ProgramOrder order = nand::rps_full_order(config.geometry.wordlines_per_block);
  const std::uint32_t units = device.num_units();
  const std::uint32_t blocks = device.visible_blocks();
  struct Cursor {
    std::uint32_t block = 0;
    std::uint32_t next = 0;  // index into `order`
  };
  std::vector<Cursor> cursors(units);
  const double reads_per_program =
      ops.programs() == 0 ? 0.0
                          : static_cast<double>(ops.reads) / static_cast<double>(ops.programs());
  double read_credit = 0.0;
  std::uint64_t issued = 0;
  for (std::uint64_t i = 0; i < ops.programs(); ++i) {
    const auto unit = static_cast<std::uint32_t>(i % units);
    Cursor& c = cursors[unit];
    nand::PageData data;
    data.lpn = i;
    data.signature = i;
    const nand::PageAddress addr{unit, c.block, order[c.next]};
    const bool ok = device.program(addr, std::move(data), 0).is_ok();
    assert(ok);
    (void)ok;
    ++c.next;
    ++issued;
    for (read_credit += reads_per_program; read_credit >= 1.0; read_credit -= 1.0) {
      const nand::PageAddress target{unit, c.block, order[(issued * 7919) % c.next]};
      const bool read_ok = device.read(target, 0).is_ok();
      assert(read_ok);
      (void)read_ok;
      ++issued;
    }
    if (c.next == order.size()) {
      const bool erased = device.erase(nand::BlockAddress{unit, c.block}, 0).is_ok();
      assert(erased);
      (void)erased;
      ++issued;
      c.next = 0;
      c.block = (c.block + 1) % blocks;
    }
  }
  return issued;
}

/// Drive `trace`'s page stream through synchronous FtlBase::write/read on a
/// fork of `fork`. Returns false if any write fails.
bool drive_ftl(ftl::FtlBase& ftl, const workload::Trace& trace, std::uint64_t* pages) {
  const Microseconds base = ftl.device().all_idle_at();
  bool ok = true;
  for (const workload::IoRequest& req : trace.requests()) {
    const Microseconds t = base + req.arrival_us;
    for (std::uint32_t j = 0; j < req.page_count; ++j) {
      if (req.kind == workload::IoKind::kWrite) {
        ok = ftl.write(req.lpn + j, t, 0.5).is_ok() && ok;
      } else {
        (void)ftl.read(req.lpn + j, t);
      }
      ++*pages;
    }
  }
  return ok;
}

void run_replay(const ReplayParams& p, std::uint64_t seed, double seconds, bool traced,
                Spans& spans, Report& report) {
  const sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  const sim::FtlKind kind = sim::FtlKind::kFlex;
  report.sizes["requests_per_trial"] = static_cast<double>(p.requests);
  report.sizes["warm_up_requests"] = static_cast<double>(p.requests / 2);
  report.sizes["device_pages"] = static_cast<double>(spec.ftl_config.geometry.total_pages());

  // Setup: generate both traces, precondition, warm up, checkpoint.
  workload::Trace trace;
  sim::Snapshot fork;
  std::uint64_t fork_digest = 0;
  std::vector<double> generate_s, precondition_s, warm_up_s, checkpoint_s;
  Calibrator calibrate(!traced);
  calibrate.start();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Spans::Scope setup(spans, "sim.setup");
    const double t0 = now_s();
    workload::Trace warm;
    {
      Spans::Scope s(spans, "workload.generate");
      const Lpn exported = sim::make_ftl(kind, spec.ftl_config)->exported_pages();
      const Lpn working_set =
          static_cast<Lpn>(static_cast<double>(exported) * spec.working_set_fraction);
      warm = workload::generate(workload::preset_config(
          p.preset, working_set, p.requests / 2, util::derive_seed(seed, 1)));
      trace = workload::generate(
          workload::preset_config(p.preset, working_set, p.requests, seed));
    }
    const double t1 = now_s();
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, spec.ftl_config);
    sim::Simulator simulator(*ftl, spec.sim);
    {
      Spans::Scope s(spans, "sim.precondition");
      simulator.precondition();
    }
    const double t2 = now_s();
    {
      Spans::Scope s(spans, "sim.warm_up");
      simulator.warm_up(warm);
    }
    const double t3 = now_s();
    {
      Spans::Scope s(spans, "sim.checkpoint");
      fork = simulator.checkpoint();
    }
    const double t4 = now_s();
    report.setup_s.push_back(t4 - t0);
    report.setup_calibration_s.push_back(calibrate.next());
    generate_s.push_back(t1 - t0);
    precondition_s.push_back(t2 - t1);
    warm_up_s.push_back(t3 - t2);
    checkpoint_s.push_back(t4 - t3);
    if (rep == 0) fork_digest = fork.digest();
    report.check("setup_repeats_exactly", fork.digest() == fork_digest);
  }
  report.digests["fork_point"] = hex(fork_digest);

  std::uint64_t trace_pages = 0;
  for (const workload::IoRequest& req : trace.requests()) trace_pages += req.page_count;

  // One forked replay: a fresh FTL restored from the fork point, then
  // Simulator::run with the given observers attached.
  struct Replay {
    std::unique_ptr<ftl::FtlBase> ftl;
    std::unique_ptr<sim::Simulator> simulator;
    sim::SimResult result;
    double restore_s = 0.0;
    double run_s = 0.0;
  };
  const auto replay = [&](obs::TraceSink* sink, obs::StateSampler* sampler, const char* span) {
    Replay r;
    const double t0 = now_s();
    r.ftl = sim::make_ftl(kind, spec.ftl_config);
    r.simulator = std::make_unique<sim::Simulator>(*r.ftl, spec.sim);
    {
      Spans::Scope s(spans, "sim.restore");
      report.check("restore_ok", r.simulator->warm_start(fork));
    }
    r.restore_s = now_s() - t0;
    r.simulator->set_trace_sink(sink);
    if (sampler != nullptr) {
      sampler->set_collector(sim::make_state_collector(*r.ftl, &r.simulator->controller()));
      r.simulator->set_state_sampler(sampler);
    }
    {
      Spans::Scope s(spans, span);
      const double t1 = now_s();
      r.result = r.simulator->run(trace);
      r.run_s = now_s() - t1;
    }
    r.simulator->set_trace_sink(nullptr);
    r.simulator->set_state_sampler(nullptr);
    return r;
  };

  // Measured phase: forked replays until the time is up.
  sim::SimResult first;
  std::uint64_t first_digest = 0;
  std::vector<double> restore_s, run_s;
  calibrate.start();
  const double phase_start = now_s();
  while (report.reps.empty() || now_s() - phase_start < seconds) {
    Spans::Scope trial(spans, "sim.trial");
    const bool first_trial = report.reps.empty();
    const double t0 = now_s();
    const Replay r = replay(nullptr, nullptr, "sim.run");
    bool consistent = false;
    {
      Spans::Scope s(spans, "ftl.check_consistency");
      consistent = r.ftl->check_consistency();
    }
    const sim::SimResult& result = r.result;
    report.reps.push_back(Rep{now_s() - t0, r.run_s,
                              static_cast<double>(result.pages_read + result.pages_written), 1,
                              calibrate.next()});
    restore_s.push_back(r.restore_s);
    run_s.push_back(r.run_s);
    report.attempted += result.requests;
    report.failed += result.read_errors + (trace.size() - result.requests);
    report.check("every_request_completes",
                 result.requests == trace.size() && !result.crashed &&
                     result.pages_read + result.pages_written == trace_pages);
    report.check("no_read_errors", result.read_errors == 0);
    report.check("attribution_conserved", attribution_conserved(r.ftl->device()));
    report.check("ftl_consistent", consistent);
    const std::uint64_t digest = result_digest(result);
    if (first_trial) {
      first = result;
      first_digest = digest;
    }
    report.check("trials_repeat_exactly", digest == first_digest);
    // The end-state digest is taken outside the timed repetition.
    const bool last = now_s() - phase_start >= seconds;
    if (first_trial || last) {
      Spans::Scope s(spans, "sim.checkpoint");
      const std::string end_state = hex(r.simulator->checkpoint().digest());
      if (first_trial) report.digests["end_state"] = end_state;
      report.check("end_state_repeats_exactly", report.digests["end_state"] == end_state);
    }
  }
  report.digests["sim_result"] = hex(first_digest);

  // A traced replay: it must reproduce the untraced results exactly and
  // carries each request's issue time. A traced run repeats it, each time
  // paired with an untraced replay just before it, for what a TraceSink
  // costs.
  std::vector<double> service_us, overhead;
  for (int rep = 0; rep < (traced ? kSplitReps : 1); ++rep) {
    const double plain_s = traced ? replay(nullptr, nullptr, "sim.run").run_s : 0.0;
    obs::TraceSink sink;
    const Replay r = replay(&sink, nullptr, "sim.run_traced");
    report.check("traced_replay_matches", result_digest(r.result) == first_digest);
    if (traced) overhead.push_back(r.run_s / plain_s);
    if (rep > 0) continue;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.kind == obs::EventKind::kHostRead || e.kind == obs::EventKind::kHostWrite) {
        service_us.push_back(static_cast<double>(e.dur) - static_cast<double>(e.c));
      }
    }
    report.layers["obs.trace_mb"] =
        static_cast<double>(sink.size() * sizeof(obs::TraceEvent)) / 1e6;
  }
  report.layers["obs.trace_overhead"] = median(overhead);

  const nand::Geometry& g = spec.ftl_config.geometry;
  report.sim["sim_iops"] = first.iops_busy();
  report.sim["sim_erases"] = static_cast<double>(first.erases);
  report.sim["waf"] = first.waf();
  if (p.latency_from_issue) {
    add_latency(report, percentile(service_us, 50.0), percentile(service_us, 99.9),
                service_us.size());
  } else {
    add_latency(report, first.latency_us.percentile(50.0), first.latency_us.percentile(99.9),
                first.latency_us.size());
  }
  if (!traced) return;

  // Per-layer values of the traced run.
  report.layers["workload.generate_s"] = median(generate_s);
  report.layers["sim.precondition_s"] = median(precondition_s);
  report.layers["sim.warm_up_s"] = median(warm_up_s);
  report.layers["sim.checkpoint_s"] = median(checkpoint_s);
  report.layers["sim.restore_s"] = median(restore_s);
  report.layers["sim.snapshot_mb"] = static_cast<double>(fork.bytes().size()) / 1e6;
  report.layers["sim.run_s"] = median(run_s);
  report.layers["sim.busy_share"] =
      first.makespan_us <= 0 ? 0.0
                             : static_cast<double>(first.busy_us) /
                                   static_cast<double>(first.makespan_us);
  add_op_counts(report, first.ops);
  report.layers["nand.chip_util"] =
      chip_util(first.ops, spec.ftl_config.timing, g.num_units(), first.makespan_us);
  add_ftl_counts(report, first.ftl_stats, first.attribution);

  // Per-page split of the same page stream: a standalone device with the
  // run's op mix, then synchronous FTL calls from the fork point.
  std::vector<double> nand_ns, ftl_ns;
  ftl::FtlStats sync_stats;
  for (int rep = 0; rep < kSplitReps; ++rep) {
    {
      Spans::Scope s(spans, "nand.drive");
      const double t0 = now_s();
      const std::uint64_t issued = drive_nand(spec.ftl_config, first.ops);
      nand_ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(issued));
    }
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, spec.ftl_config);
    {
      Spans::Scope s(spans, "sim.restore");
      report.check("restore_ok", fork.restore(*ftl));
    }
    const ftl::FtlStats before = ftl->stats();
    std::uint64_t pages = 0;
    {
      Spans::Scope s(spans, "ftl.drive");
      const double t0 = now_s();
      report.check("sync_writes_ok", drive_ftl(*ftl, trace, &pages));
      ftl_ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(pages));
    }
    sync_stats.gc_copy_pages = ftl->stats().gc_copy_pages - before.gc_copy_pages;
    sync_stats.foreground_gc_blocks =
        ftl->stats().foreground_gc_blocks - before.foreground_gc_blocks;
  }
  const double run_ns = median(run_s) * 1e9 / static_cast<double>(trace_pages);
  report.layers["nand.ns_per_op"] = median(nand_ns);
  report.layers["ftl.ns_per_page"] = median(ftl_ns);
  report.layers["controller.ns_per_page"] = run_ns - median(ftl_ns);
  report.layers["ftl.sync_gc_copy_pages"] = static_cast<double>(sync_stats.gc_copy_pages);
  report.layers["ftl.sync_foreground_gc_blocks"] =
      static_cast<double>(sync_stats.foreground_gc_blocks);

  // A sampled replay (controller queue depths); it too must reproduce the
  // untraced results exactly.
  obs::StateSampler sampler(100'000);
  const Replay sampled = replay(nullptr, &sampler, "sim.run_sampled");
  report.check("sampled_replay_matches", result_digest(sampled.result) == first_digest);
  Spans::Scope s(spans, "obs.sampler_stats");
  add_queue_depths(report, sampler);
}

// ---------------------------------------------------------------------------
// qos-flood: open-loop WDRR multi-tenant run through the host frontend.

// bench_multitenant_qos's cell (15 Poisson victims of one-page requests, one
// 8-page write flood from a third of the way in, a 10-page shared budget,
// WDRR with a one-page quantum), stretched kQosScale times in time at the
// same offered rate, on a device grown as much so GC stays idle (flexFTL
// still erases its parity backup blocks).
constexpr std::uint32_t kQosTenants = 16;
constexpr std::uint64_t kQosScale = 12;

nand::Geometry qos_geometry() {
  nand::Geometry g;
  g.channels = 4;
  g.chips_per_channel = 2;
  g.blocks_per_chip = static_cast<std::uint32_t>(96 * kQosScale);
  g.wordlines_per_block = 32;
  g.page_size_bytes = 2048;
  return g;
}

std::vector<host::TenantConfig> qos_tenants() {
  constexpr Microseconds kVictimGap = 5'000;
  constexpr std::uint64_t kVictimRequests = 800 * kQosScale;
  std::vector<host::TenantConfig> tenants;
  for (std::uint32_t i = 0; i + 1 < kQosTenants; ++i) {
    host::TenantConfig t;
    t.id = i;
    t.read_fraction = 0.2;
    t.size_dist = {{1, 1.0}};
    t.mean_interarrival_us = kVictimGap;
    t.requests = kVictimRequests;
    tenants.push_back(t);
  }
  host::TenantConfig flood;
  flood.id = kQosTenants - 1;
  flood.read_fraction = 0.0;
  flood.size_dist = {{8, 1.0}};
  flood.mean_interarrival_us = 100;
  flood.start_us = static_cast<Microseconds>(kVictimRequests) * kVictimGap / 3;
  flood.requests = 2'600 * kQosScale;
  tenants.push_back(flood);
  return tenants;
}

host::MultiQueueConfig qos_frontend_config() {
  host::MultiQueueConfig mq;
  mq.arbiter.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  mq.arbiter.quantum_pages = 1;
  mq.shared_page_budget = 10;
  return mq;
}

void run_qos(std::uint64_t seed, double seconds, bool traced, Spans& spans, Report& report) {
  ftl::FtlConfig config;
  config.geometry = qos_geometry();
  const std::vector<host::TenantConfig> tenants = qos_tenants();
  report.sizes["tenants"] = kQosTenants;
  report.sizes["device_pages"] = static_cast<double>(config.geometry.total_pages());

  std::vector<workload::Trace> traces;
  std::vector<double> generate_s;
  Calibrator calibrate(!traced);
  calibrate.start();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Spans::Scope setup(spans, "sim.setup");
    const double t0 = now_s();
    Lpn exported = 0;
    {
      Spans::Scope s(spans, "sim.make_ftl");
      exported = sim::make_ftl(sim::FtlKind::kFlex, config)->exported_pages();
    }
    const double t1 = now_s();
    {
      Spans::Scope s(spans, "workload.generate");
      traces = host::build_tenant_traces(tenants, exported, seed, 1);
    }
    const double t2 = now_s();
    report.setup_s.push_back(t2 - t0);
    report.setup_calibration_s.push_back(calibrate.next());
    generate_s.push_back(t2 - t1);
  }
  std::uint64_t requests = 0;
  for (const workload::Trace& t : traces) requests += t.size();
  report.sizes["requests_per_trial"] = static_cast<double>(requests);

  // One trial: a fresh device, the frontend, a full replay, the audit.
  struct Trial {
    host::MultiQueueResult result;
    std::unique_ptr<ftl::FtlBase> ftl;
    std::unique_ptr<host::MultiQueueFrontend> frontend;
    double run_s = 0.0;
  };
  const auto replay = [&](const host::MultiQueueConfig& mq, obs::TraceSink* sink,
                             obs::StateSampler* sampler, const char* span) {
    Trial trial;
    {
      Spans::Scope s(spans, "host.setup");
      trial.ftl = sim::make_ftl(sim::FtlKind::kFlex, config);
      trial.frontend = std::make_unique<host::MultiQueueFrontend>(*trial.ftl, mq);
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        trial.frontend->add_tenant(tenants[i], traces[i]);
      }
      if (sampler != nullptr) {
        sampler->set_collector(
            sim::make_state_collector(*trial.ftl, &trial.frontend->controller()));
      }
      trial.frontend->set_observability(sink, sampler);
    }
    Spans::Scope s(spans, span);
    const double t0 = now_s();
    trial.result = trial.frontend->run();
    trial.run_s = now_s() - t0;
    return trial;
  };
  const auto audit = [&](const Trial& trial) {
    std::uint64_t completed = 0, failed = 0, pages = 0;
    for (const host::TenantResult& t : trial.result.tenants) {
      completed += t.completed;
      failed += t.failed + t.aborted + t.read_errors;
      pages += t.pages;
    }
    bool consistent = false;
    {
      Spans::Scope s(spans, "ftl.check_consistency");
      consistent = trial.ftl->check_consistency();
    }
    report.attempted += requests;
    report.failed += failed + (requests - completed);
    report.check("every_request_completes", completed == requests && !trial.result.crashed);
    report.check("no_failed_writes_or_read_errors", failed == 0);
    report.check("attribution_conserved", attribution_conserved(trial.ftl->device()));
    report.check("ftl_consistent", consistent);
    return pages;
  };

  const host::MultiQueueConfig mq = qos_frontend_config();
  Trial first;
  std::uint64_t first_digest = 0;
  std::vector<double> run_s;
  calibrate.start();
  const double phase_start = now_s();
  while (report.reps.empty() || now_s() - phase_start < seconds) {
    Spans::Scope s(spans, "host.trial");
    const double t0 = now_s();
    Trial trial = replay(mq, nullptr, nullptr, "host.run");
    const std::uint64_t pages = audit(trial);
    report.reps.push_back(
        Rep{now_s() - t0, trial.run_s, static_cast<double>(pages), 1, calibrate.next()});
    run_s.push_back(trial.run_s);
    const std::uint64_t digest = trial.result.digest();
    if (first.ftl == nullptr) {
      first_digest = digest;
      first = std::move(trial);
    }
    report.check("trials_repeat_exactly", digest == first_digest);
  }
  report.digests["multi_queue_result"] = hex(first_digest);
  {
    Spans::Scope s(spans, "sim.checkpoint");
    report.digests["end_state"] = hex(sim::Snapshot::capture(*first.ftl).digest());
  }

  // Victims pooled; the flood is the adversary, not a measured tenant.
  obs::LatencyHistogram victims;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < first.result.tenants.size(); ++i) {
    completed += first.result.tenants[i].completed;
    if (i + 1 < first.result.tenants.size()) victims.merge(first.result.tenants[i].latency_us);
  }
  const nand::OpCounters ops = first.ftl->device().total_counters();
  const ftl::FtlStats& stats = first.ftl->stats();
  report.sim["sim_iops"] = static_cast<double>(completed) * 1e6 /
                           static_cast<double>(std::max<Microseconds>(1, first.result.end_time_us));
  report.sim["sim_erases"] = static_cast<double>(ops.erases);
  report.sim["waf"] = stats.waf(ops);
  add_latency(report, static_cast<double>(victims.p50()), static_cast<double>(victims.p999()),
              victims.count());
  if (!traced) return;

  report.layers["workload.generate_s"] = median(generate_s);
  report.layers["host.run_s"] = median(run_s);
  add_op_counts(report, ops);
  report.layers["nand.chip_util"] = chip_util(ops, config.timing, config.geometry.num_units(),
                                              first.result.end_time_us);
  add_ftl_counts(report, stats, first.ftl->device().attribution());

  // Op and admission logs: controller queue wait (ready -> start) and host
  // admission wait (arrival -> admit), both in simulated time.
  {
    host::MultiQueueConfig logged = mq;
    logged.keep_op_log = true;
    logged.keep_admission_log = true;
    Trial trial = replay(logged, nullptr, nullptr, "host.run_logged");
    report.check("logged_replay_matches", trial.result.digest() == first_digest);
    Spans::Scope s(spans, "obs.log_stats");
    std::vector<double> queue_wait, admit_wait;
    for (const ctrl::OpRecord& op : trial.frontend->controller().op_log()) {
      queue_wait.push_back(static_cast<double>(op.start - op.ready));
    }
    for (const host::AdmissionRecord& a : trial.frontend->admission_log()) {
      admit_wait.push_back(static_cast<double>(a.admit_us - a.arrival_us));
    }
    report.layers["controller.queue_wait_us_p99"] = percentile(queue_wait, 99.0);
    report.layers["host.admit_wait_us_p99"] = percentile(admit_wait, 99.0);
    report.layers["host.ns_per_admission"] =
        median(run_s) * 1e9 / static_cast<double>(trial.frontend->admission_log().size());
  }
  {
    obs::StateSampler sampler(100'000);
    Trial trial = replay(mq, nullptr, &sampler, "host.run_sampled");
    report.check("sampled_replay_matches", trial.result.digest() == first_digest);
    Spans::Scope s(spans, "obs.sampler_stats");
    add_queue_depths(report, sampler);
  }
  // What a TraceSink costs: traced replays, each paired with an untraced
  // one just before it.
  std::vector<double> overhead;
  for (int rep = 0; rep < kSplitReps; ++rep) {
    const double plain_s = replay(mq, nullptr, nullptr, "host.run").run_s;
    obs::TraceSink sink;
    Trial trial = replay(mq, &sink, nullptr, "host.run_traced");
    report.check("traced_replay_matches", trial.result.digest() == first_digest);
    overhead.push_back(trial.run_s / plain_s);
    report.layers["obs.trace_mb"] =
        static_cast<double>(sink.size() * sizeof(obs::TraceEvent)) / 1e6;
  }
  report.layers["obs.trace_overhead"] = median(overhead);
}

// ---------------------------------------------------------------------------
// crash-sweep: a faultsim seed x crash-density matrix forked from one
// WarmStart.

// 180 seeds x (8 + 16 + 32) points = 10080 crash trials: enough that the
// 99.9th percentile of their recovery times has ten samples beyond it.
constexpr std::uint64_t kCrashSeeds = 180;
constexpr std::uint64_t kCrashDensities[] = {8, 16, 32};
constexpr std::size_t kCrashCellsPerRep = 12;  // 4 seeds x 3 densities

struct CrashCell {
  faultsim::FaultSimConfig config;
  std::uint64_t points = 0;
};

/// Order-sensitive digest of the matrix's results (cell order).
std::uint64_t digest_matrix(const std::vector<faultsim::MatrixCell>& cells) {
  std::uint64_t h = kFnvBasis;
  for (const faultsim::MatrixCell& cell : cells) {
    for (const std::uint64_t v :
         {cell.seed, cell.points, cell.result.golden_boundaries, cell.result.crashes_injected,
          cell.result.total_victims, cell.result.total_pages_lost,
          cell.result.total_parity_recovered, cell.result.replay_mismatches,
          static_cast<std::uint64_t>(cell.result.failures.size())}) {
      h = mix(h, v);
    }
  }
  return h;
}

void run_crash(std::uint64_t seed, double seconds, bool traced, Spans& spans, Report& report) {
  const faultsim::FaultSimConfig base;  // flexFTL, controller engine, small_config()
  std::vector<CrashCell> cells;
  for (std::uint64_t s = 0; s < kCrashSeeds; ++s) {
    for (const std::uint64_t points : kCrashDensities) {
      CrashCell cell{base, points};
      cell.config.seed = util::derive_seed(seed, s);
      cells.push_back(cell);
    }
  }
  report.sizes["cells"] = static_cast<double>(cells.size());
  report.sizes["requests_per_trial"] = static_cast<double>(base.requests);
  report.sizes["device_pages"] = static_cast<double>(base.ftl_config.geometry.total_pages());

  // Setup is the fill phase every trial forks from. It takes well under a
  // millisecond, so each set-up repetition times a batch of them.
  constexpr int kWarmStartBatch = 25;
  faultsim::WarmStart warm;
  Calibrator calibrate(!traced);
  calibrate.start();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    for (int i = 0; i < kWarmStartBatch; ++i) {
      Spans::Scope s(spans, "faultsim.warm_start");
      warm = faultsim::make_warm_start(base);
    }
    report.setup_s.push_back((now_s() - t0) / kWarmStartBatch);
    report.setup_calibration_s.push_back(calibrate.next());
  }
  report.digests["warm_start"] = hex(warm.digest());

  // Per-trial counts faultsim::sweep does not return: the same golden and
  // crash trials, one run_trial call each, at the sweep's crash points. The
  // warm start's own counters are subtracted from each trial's totals.
  const nand::AttributionCounters fill = [&] {
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(base.kind, base.ftl_config);
    const bool restored = warm.ftl.restore(*ftl);
    report.check("restore_ok", restored);
    return ftl->device().attribution();
  }();
  std::vector<std::uint64_t> cell_pages(cells.size(), 0);  // host pages of one sweep
  std::uint64_t crash_trials = 0, victims = 0, recovered = 0;
  std::uint64_t erases = 0, programs = 0, host_programs = 0, parity_programs = 0;
  std::uint64_t lsb = 0, msb = 0;
  double golden_requests = 0.0, golden_span_us = 0.0;
  std::vector<double> recovery_us;
  std::vector<double> trial_s;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CrashCell& cell = cells[c];
    faultsim::TrialResult golden;
    {
      Spans::Scope s(spans, "faultsim.trial");
      golden = faultsim::run_trial(cell.config, nullptr, &warm);
    }
    const std::vector<Microseconds>& b = golden.boundaries;
    report.check("golden_trial_clean", golden.report.violations == 0 && golden.report.consistent);
    cell_pages[c] += golden.attribution.programs(nand::WriteCause::kHost) -
                     fill.programs(nand::WriteCause::kHost);
    golden_requests += static_cast<double>(golden.report.requests_issued);
    golden_span_us += b.empty() ? 0.0 : static_cast<double>(b.back() - b.front());
    const std::uint64_t points = std::min<std::uint64_t>(cell.points, b.size());
    for (std::uint64_t k = 0; k < points; ++k) {
      // faultsim::sweep's crash-point spacing.
      const std::size_t idx =
          static_cast<std::size_t>((k * b.size()) / points + b.size() / (2 * points));
      faultsim::FaultSimConfig crashed = cell.config;
      crashed.crash_time_us = b[std::min(idx, b.size() - 1)] - 1;
      faultsim::TrialResult trial;
      {
        Spans::Scope s(spans, "faultsim.trial");
        const double t0 = now_s();
        trial = faultsim::run_trial(crashed, nullptr, &warm);
        trial_s.push_back(now_s() - t0);
      }
      const nand::AttributionCounters d = nand::delta(trial.attribution, fill);
      const std::uint64_t host = d.programs(nand::WriteCause::kHost);
      cell_pages[c] += 2 * host;  // the crash trial and its reproducer replay
      host_programs += host;
      programs += d.total_programs();
      lsb += d.total_lsb_programs();
      msb += d.total_msb_programs();
      erases += d.total_erases();
      parity_programs += d.programs(nand::WriteCause::kParity);
      ++crash_trials;
      victims += trial.report.victims;
      recovered += trial.report.recovery.pages_recovered;
      recovery_us.push_back(static_cast<double>(trial.report.recovery.recovery_time_us));
      report.check("attribution_conserved",
                   d.meta_programs + d.total_stream_programs() == d.total_programs());
    }
  }

  // Measured phase: the matrix through faultsim::sweep, one group of cells
  // per repetition (short repetitions pair closely with their calibration),
  // cycling through the groups until the time is up and every cell ran.
  faultsim::SweepOptions options;
  options.minimize = false;  // a failure fails the gate; nothing to shrink
  const std::size_t groups = cells.size() / kCrashCellsPerRep;
  std::vector<faultsim::MatrixCell> matrix(cells.size());
  calibrate.start();
  const double phase_start = now_s();
  while (report.reps.size() < groups || now_s() - phase_start < seconds) {
    const std::size_t first = (report.reps.size() % groups) * kCrashCellsPerRep;
    const bool first_pass = report.reps.size() < groups;
    std::vector<faultsim::SweepResult> results;
    const double t0 = now_s();
    {
      Spans::Scope s(spans, "faultsim.sweep");
      for (std::size_t c = first; c < first + kCrashCellsPerRep; ++c) {
        faultsim::SweepOptions o = options;
        o.crash_points = cells[c].points;
        results.push_back(faultsim::sweep(cells[c].config, o, nullptr, &warm));
      }
    }
    const double t1 = now_s();
    double pages = 0.0, trials = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::size_t c = first + i;
      const faultsim::MatrixCell cell{cells[c].config.seed, cells[c].points, results[i]};
      pages += static_cast<double>(cell_pages[c]);
      trials += static_cast<double>(cell.result.crashes_injected);
      report.attempted += cell.result.crashes_injected;
      report.failed += cell.result.failures.size();
      report.check("no_violations_or_replay_mismatches",
                   cell.result.ok() && cell.result.replay_mismatches == 0);
      if (first_pass) {
        matrix[c] = cell;
      } else {
        report.check("trials_repeat_exactly", digest_matrix({cell}) == digest_matrix({matrix[c]}));
      }
    }
    report.reps.push_back(Rep{t1 - t0, t1 - t0, pages, trials, calibrate.next()});
  }
  report.digests["matrix"] = hex(digest_matrix(matrix));
  faultsim::SweepResult totals;
  for (const faultsim::MatrixCell& cell : matrix) {
    totals.crashes_injected += cell.result.crashes_injected;
    totals.total_victims += cell.result.total_victims;
    totals.total_parity_recovered += cell.result.total_parity_recovered;
  }
  report.check("per_trial_counts_match_sweep",
               totals.crashes_injected == crash_trials && totals.total_victims == victims &&
                   totals.total_parity_recovered == recovered);

  report.sim["sim_iops"] = golden_span_us <= 0 ? 0.0 : golden_requests * 1e6 / golden_span_us;
  report.sim["sim_erases"] = static_cast<double>(erases);
  report.sim["waf"] = host_programs == 0 ? 0.0
                                         : static_cast<double>(programs) /
                                               static_cast<double>(host_programs);
  // The crash workload's user-visible latency: power cut to recovered.
  add_latency(report, percentile(recovery_us, 50.0), percentile(recovery_us, 99.9),
              recovery_us.size());
  if (!traced) return;

  report.layers["faultsim.warm_start_s"] = median(report.setup_s);
  report.layers["faultsim.trial_s_p50"] = median(trial_s);
  report.layers["faultsim.crashes"] = static_cast<double>(crash_trials);
  report.layers["faultsim.victims"] = static_cast<double>(victims);
  report.layers["faultsim.parity_recovered"] = static_cast<double>(recovered);
  report.layers["sim.snapshot_mb"] = static_cast<double>(warm.ftl.bytes().size()) / 1e6;
  std::vector<double> restore_s;
  for (int rep = 0; rep < kWarmStartBatch * kSetupReps; ++rep) {
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(base.kind, base.ftl_config);
    Spans::Scope s(spans, "sim.restore");
    const double t0 = now_s();
    report.check("restore_ok", warm.ftl.restore(*ftl));
    restore_s.push_back(now_s() - t0);
  }
  report.layers["sim.restore_s"] = median(restore_s);
  report.layers["nand.lsb_programs"] = static_cast<double>(lsb);
  report.layers["nand.msb_programs"] = static_cast<double>(msb);
  report.layers["nand.erases"] = static_cast<double>(erases);
  report.layers["core.parity_programs"] = static_cast<double>(parity_programs);

  // What a TraceSink costs on the golden trials.
  double plain_s = 0.0, traced_s = 0.0;
  std::size_t events = 0;
  for (const CrashCell& cell : cells) {
    obs::TraceSink sink;
    const double t0 = now_s();
    {
      Spans::Scope s(spans, "faultsim.trial");
      (void)faultsim::run_trial(cell.config, nullptr, &warm);
    }
    const double t1 = now_s();
    {
      Spans::Scope s(spans, "faultsim.trial_traced");
      (void)faultsim::run_trial(cell.config, &sink, &warm);
    }
    traced_s += now_s() - t1;
    plain_s += t1 - t0;
    events += sink.size();
  }
  report.layers["obs.trace_overhead"] = traced_s / plain_s;
  report.layers["obs.trace_mb"] = static_cast<double>(events * sizeof(obs::TraceEvent)) / 1e6;
}

// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::string& workload, std::uint64_t seed,
                double seconds, bool traced, const Report& r, const Spans& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_measure: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const auto num_map = [out](const char* key, const std::map<std::string, double>& m) {
    std::fprintf(out, "  \"%s\": {", key);
    const char* sep = "";
    for (const auto& [k, v] : m) {
      std::fprintf(out, "%s\"%s\": %.17g", sep, k.c_str(), v);
      sep = ", ";
    }
    std::fprintf(out, "},\n");
  };
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"manifest\": {\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
               "\"compiler\": \"%s\", \"asserts\": %s, \"hardware_threads\": %u, "
               "\"sim_threads\": 1},\n",
               PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, __VERSION__,
#ifdef NDEBUG
               "false",
#else
               "true",
#endif
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d,\n",
               workload.c_str(), static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
  num_map("sizes", r.sizes);
  std::fprintf(out, "  \"setup_s\": [");
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    std::fprintf(out, "%s%.17g", i ? ", " : "", r.setup_s[i]);
  }
  std::fprintf(out, "],\n  \"setup_calibration_s\": [");
  for (std::size_t i = 0; i < r.setup_calibration_s.size(); ++i) {
    std::fprintf(out, "%s%.17g", i ? ", " : "", r.setup_calibration_s[i]);
  }
  std::fprintf(out, "],\n  \"reps\": [");
  for (std::size_t i = 0; i < r.reps.size(); ++i) {
    const Rep& rep = r.reps[i];
    std::fprintf(out, "%s\n    {\"seconds\": %.17g, \"work_s\": %.17g, \"pages\": %.17g, "
                      "\"trials\": %.17g, \"calibration_s\": %.17g}",
                 i ? "," : "", rep.seconds, rep.work_s, rep.pages, rep.trials, rep.calibration_s);
  }
  std::fprintf(out, "],\n");
  num_map("sim", r.sim);
  num_map("layers", r.layers);
  std::fprintf(out, "  \"checks\": {");
  const char* sep = "";
  for (const auto& [k, v] : r.checks) {
    std::fprintf(out, "%s\"%s\": %s", sep, k.c_str(), v ? "true" : "false");
    sep = ", ";
  }
  std::fprintf(out, "},\n  \"digests\": {");
  sep = "";
  for (const auto& [k, v] : r.digests) {
    std::fprintf(out, "%s\"%s\": \"%s\"", sep, k.c_str(), v.c_str());
    sep = ", ";
  }
  std::fprintf(out, "},\n  \"attempted\": %llu, \"failed\": %llu, \"peak_rss_mb\": %.17g,\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), peak_rss_mb());
  std::fprintf(out, "  \"wall_s\": %.17g,\n  \"spans\": [", now_s());
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Spans::Span& s = spans.spans()[i];
    std::fprintf(out, "%s\n    {\"name\": \"%s\", \"start\": %.17g, \"end\": %.17g, \"parent\": %d}",
                 i ? "," : "", s.name.c_str(), s.start, s.end, s.parent);
  }
  std::fprintf(out, "]\n}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "perfbench_measure: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_measure --workload NAME --seed N --seconds S --trace 0|1 "
               "--out PATH\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_s();  // start the span clock
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || args.size() != 5 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace") || !args.count("out")) {
    usage();
  }
  const std::string workload = args["workload"];
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
  } catch (...) {
    usage();
  }
  const bool traced = args["trace"] == "1";
  if (!traced && args["trace"] != "0") usage();

  Spans spans(traced);
  Report report;
  {
    Spans::Scope root(spans, "bench.main");
    if (workload == "ntrx-saturated") {
      run_replay({workload::Preset::kNtrx, 400'000, true}, seed, seconds, traced, spans, report);
    } else if (workload == "webserver-idle") {
      run_replay({workload::Preset::kWebserver, 400'000, false}, seed, seconds, traced, spans, report);
    } else if (workload == "qos-flood") {
      run_qos(seed, seconds, traced, spans, report);
    } else if (workload == "crash-sweep") {
      run_crash(seed, seconds, traced, spans, report);
    } else {
      std::fprintf(stderr, "perfbench_measure: unknown workload %s\n", workload.c_str());
      return 2;
    }
  }
  write_json(args["out"], workload, seed, seconds, traced, report, spans);
  return 0;
}
