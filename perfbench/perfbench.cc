// perfbench — the repository benchmark: four named workloads driven through
// libfastiov's public API, timed end to end, with a traced per-layer mode.
//
//   perfbench --workload=paper-200 --seed=1 --seconds=10 --trace=0
//
// Every run prints two JSON lines on stdout. The first is the full report
// (manifest, every metric by name and unit, check failures, the result
// digest); the last is the contract summary
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). The exit code is 0 when every correctness check passed,
// 1 when one failed, 2 on a usage error or a refused unoptimised build.
//
// Measurement model. A workload is a fixed amount of simulated work (a
// "pass") generated from --seed alone. Set-up (input generation plus a small
// warm-up simulation) is repeated kSetupReps times and reported as its
// median. The timed part then runs passes back to back while the next pass
// is predicted to finish inside --seconds (always at least one) and reports
// per-pass medians. Every pass must reproduce the first pass's digest.
//
// The traced mode (--trace=1) runs one untraced reference pass and one
// traced pass in the same process. The traced pass records spans around the
// harness's own calls into each module and switches on the counters the
// library already exposes (collect_metrics, profile_driver). Its simulated
// results must equal the reference pass's; trace.overhead_pct is the wall
// ratio of the two. Nothing here instruments the library itself.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cli/flags.h"
#include "src/cluster/cluster.h"
#include "src/experiments/multi_cell.h"
#include "src/experiments/result_json.h"
#include "src/experiments/startup_experiment.h"
#include "src/experiments/sweep.h"
#include "src/stats/digest.h"
#include "src/stats/json_writer.h"
#include "src/stats/summary.h"

using namespace fastiov;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;
// Paper targets (§6.2), the same ones tools/calibrate prints.
constexpr double kPaperVanillaMeanS = 16.2;
constexpr double kPaperFastIovMeanCut = 0.657;
constexpr double kPaperFastIovP99Cut = 0.754;
// sim_err_pct above this fails the paper-200 correctness gate.
constexpr double kSimErrGatePct = 10.0;
// The calibration seed; workload seeds never map onto it.
constexpr uint64_t kCalibrationSeed = 42;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Median / percentile with linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// SplitMix64: spreads one workload seed into independent simulation seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The i-th simulation seed of a workload seed, kept small (readable in the
// result JSON) and never equal to the calibration seed.
uint64_t SimSeed(uint64_t workload_seed, uint64_t i) {
  uint64_t s = Mix(workload_seed * 64 + i) % 1000000;
  return s == kCalibrationSeed ? s + 1 : s;
}

// Same host-scaling rule as tools/simbench: beyond 200 containers the host
// grows to one VF and 1 GiB per container.
HostSpec ScaleHost(int concurrency) {
  HostSpec spec;
  if (concurrency > 200) {
    spec.num_vfs = concurrency;
    spec.memory_bytes = static_cast<uint64_t>(concurrency) * kGiB;
  }
  return spec;
}

// --- spans ------------------------------------------------------------------

// In-memory span recorder. Disabled, Begin() returns -1 without reading the
// clock, so untraced runs pay one branch per call site. Sink callbacks run
// on worker threads, hence the mutex; parents are passed explicitly.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name, int parent, int64_t unit = -1) {
    if (!enabled_) {
      return -1;
    }
    const double now = SecondsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, unit, now, now});
    return static_cast<int>(spans_.size() - 1);
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    const double now = SecondsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }

  struct Totals {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  // Inclusive and self time (span minus its direct children) per span name.
  std::map<std::string, Totals> Aggregate() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Totals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++t.count;
      t.total_s += d;
      t.self_s += d - child_time[i];
    }
    return totals;
  }

  double Total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        sum += s.end - s.start;
      }
    }
    return sum;
  }

  // {"spans":[{"id","name","parent","unit","start_s","end_s"},...]}
  void Write(std::ostream& os) const {
    JsonWriter json(os);
    json.BeginObject().Key("spans").BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.BeginObject()
          .KV("id", static_cast<int64_t>(i))
          .KV("name", s.name)
          .KV("parent", static_cast<int64_t>(s.parent))
          .KV("unit", s.unit)
          .KV("start_s", s.start)
          .KV("end_s", s.end)
          .EndObject();
    }
    json.EndArray().EndObject();
    os << '\n';
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t unit;
    double start;
    double end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, int64_t unit = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, unit)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// --- pass results -----------------------------------------------------------

// Per-unit fingerprint of the base result JSON without its closing brace:
// a metrics-on run must reproduce exactly these bytes as its prefix.
struct UnitPrint {
  size_t body_len = 0;
  uint64_t body_fnv = 0;
};

UnitPrint PrintOf(const std::string& json) {
  Fnv1a64 fnv;
  const size_t body = json.empty() ? 0 : json.size() - 1;
  fnv.Update(json.data(), body);
  return UnitPrint{body, fnv.value()};
}

struct PassOutput {
  Fnv1a64 digest;  // over every result byte the pass produced
  uint64_t launches = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> unit_seconds;
  // Base-JSON prints (experiment workloads) or full digests (cluster) of
  // each unit, for the traced run's zero-perturbation check.
  std::vector<UnitPrint> prints;
  std::vector<std::string> cluster_digests;

  // Layer counters read from the results.
  uint64_t units = 0;
  uint64_t events = 0;
  uint64_t json_bytes = 0;
  bool summary_streaming = false;
  uint64_t pages_zeroed = 0, fault_zeroed_pages = 0, background_zeroed_pages = 0;
  uint64_t remote_allocations = 0, devset_lock_contention = 0;
  ParallelExecStats driver;  // summed over RunCells calls
  uint64_t driver_calls = 0;
  double driver_span_weighted = 0.0;  // mean_window_span_us x windows
  double driver_util_sum = 0.0;
  uint64_t cp_events = 0, cp_rejected = 0, registry_misses = 0;
  double imbalance_sum = 0.0;
  Summary gate_wait;
  double sim_err_pct = -1.0;  // paper-200 only
  int threads_used = 1;       // worker threads the library reports it ran on

  void Fail(uint64_t launches_failed, std::string why) {
    failed += launches_failed;
    if (failures.size() < 20) {
      failures.push_back(std::move(why));
    }
  }

  void CountHostModel(const ExperimentResult& r) {
    events += r.events_processed;
    pages_zeroed += r.pages_zeroed;
    fault_zeroed_pages += r.fault_zeroed_pages;
    background_zeroed_pages += r.background_zeroed_pages;
    remote_allocations += r.remote_allocations;
    devset_lock_contention += r.devset_lock_contention;
  }
};

// The lazy-zeroing safety property plus completeness of one host's run.
void CheckUnit(const ExperimentResult& r, uint64_t expected_started, const std::string& label,
               PassOutput& out) {
  std::ostringstream why;
  if (r.residue_reads != 0) {
    why << " residue_reads=" << r.residue_reads;
  }
  if (r.corruptions != 0) {
    why << " corruptions=" << r.corruptions;
  }
  if (r.aborted_containers != 0) {
    why << " aborted=" << r.aborted_containers;
  }
  if (r.startup.Count() != expected_started) {
    why << " started=" << r.startup.Count() << "/" << expected_started;
  }
  if (!why.str().empty()) {
    out.Fail(expected_started, label + ":" + why.str());
  }
}

// An enabled tracer also switches on the library's own counters
// (collect_metrics, profile_driver).
struct RunContext {
  Tracer* tracer = nullptr;
  int parent = -1;
  // Traced pass: the untraced pass's output, for the zero-perturbation check.
  const PassOutput* reference = nullptr;
};

// Untraced: fingerprints unit `index`. Traced: checks that its metrics-on
// JSON extends the untraced body byte for byte (the "observability" section
// goes in before the closing brace).
void MatchReference(const std::string& json, size_t index, const std::string& label,
                    const RunContext& ctx, uint64_t launches, PassOutput& out) {
  const UnitPrint print = PrintOf(json);
  out.prints.push_back(print);
  if (ctx.reference == nullptr) {
    return;
  }
  const std::vector<UnitPrint>& ref = ctx.reference->prints;
  bool same = index < ref.size() && json.size() > ref[index].body_len;
  if (same) {
    Fnv1a64 prefix;
    prefix.Update(json.data(), ref[index].body_len);
    same = prefix.value() == ref[index].body_fnv;
  }
  if (!same) {
    out.Fail(launches, label + ": traced result JSON does not extend the untraced JSON");
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds this run's inputs from the seed and warms the code paths up.
  // Called kSetupReps times; each call replaces the previous inputs.
  virtual void Setup(Tracer& tracer, int parent) = 0;
  virtual PassOutput RunPass(const RunContext& ctx) = 0;
  virtual uint64_t LaunchesPerPass() const = 0;
};

// --- paper-200 and host-5000: sequences of RunStartupExperiment -------------

struct ExperimentUnit {
  std::string label;
  StackConfig config;
  ExperimentOptions options;
};

class ExperimentWorkload : public Workload {
 public:
  // `paper` adds the sim_err_pct accuracy gate over the no-app Vanilla and
  // FastIOV units.
  ExperimentWorkload(std::vector<ExperimentUnit> (*make_units)(uint64_t, bool), uint64_t seed,
                     bool small, bool paper)
      : make_units_(make_units), seed_(seed), small_(small), paper_(paper) {}

  void Setup(Tracer& tracer, int parent) override {
    {
      ScopedSpan span(tracer, "setup.inputs", parent);
      units_ = make_units_(seed_, small_);
    }
    ScopedSpan span(tracer, "setup.warmup", parent);
    ExperimentOptions warm;
    warm.concurrency = 200;
    warm.seed = SimSeed(seed_, 63);
    ExperimentResultJson(RunStartupExperiment(StackConfig::FastIov(), warm));
  }

  uint64_t LaunchesPerPass() const override {
    uint64_t n = 0;
    for (const ExperimentUnit& u : units_) {
      n += static_cast<uint64_t>(u.options.concurrency);
    }
    return n;
  }

  PassOutput RunPass(const RunContext& ctx) override {
    Tracer& tracer = *ctx.tracer;
    PassOutput out;
    // Per-seed (vanilla mean, vanilla p99, fastiov mean, fastiov p99).
    std::map<uint64_t, std::vector<double>> accuracy;
    for (size_t i = 0; i < units_.size(); ++i) {
      const ExperimentUnit& unit = units_[i];
      const auto t0 = Clock::now();
      ScopedSpan unit_span(tracer, "unit", ctx.parent, static_cast<int64_t>(i));
      ExperimentOptions options = unit.options;
      options.collect_metrics = ctx.tracer->enabled();
      std::optional<ExperimentResult> result;
      {
        ScopedSpan span(tracer, "experiments.run", unit_span.id(), static_cast<int64_t>(i));
        result = RunStartupExperiment(unit.config, options);
      }
      std::string json;
      {
        ScopedSpan span(tracer, "stats.json", unit_span.id(), static_cast<int64_t>(i));
        json = ExperimentResultJson(*result);
      }
      {
        ScopedSpan span(tracer, "stats.digest", unit_span.id(), static_cast<int64_t>(i));
        out.digest.Update(json);
        out.digest.Update("\n");
      }
      {
        ScopedSpan span(tracer, "check", unit_span.id(), static_cast<int64_t>(i));
        CheckUnit(*result, static_cast<uint64_t>(options.concurrency), unit.label, out);
        MatchReference(json, i, unit.label, ctx, static_cast<uint64_t>(options.concurrency), out);
      }
      if (paper_ && !unit.options.app.has_value()) {
        ScopedSpan span(tracer, "stats.summary", unit_span.id(), static_cast<int64_t>(i));
        const bool vanilla = unit.config.name == StackConfig::Vanilla().name;
        const bool fastiov = unit.config.name == StackConfig::FastIov().name;
        if (vanilla || fastiov) {
          std::vector<double>& a = accuracy[unit.options.seed];
          a.resize(4, 0.0);
          a[vanilla ? 0 : 2] = result->startup.Mean();
          a[vanilla ? 1 : 3] = result->startup.Percentile(99.0);
        }
      }
      out.launches += static_cast<uint64_t>(options.concurrency);
      out.json_bytes += json.size();
      out.CountHostModel(*result);
      ++out.units;
      out.unit_seconds.push_back(SecondsBetween(t0, Clock::now()));
    }
    if (paper_) {
      out.sim_err_pct = SimErrPct(accuracy);
      if (!(out.sim_err_pct <= kSimErrGatePct)) {
        out.Fail(out.launches, "sim_err_pct " + std::to_string(out.sim_err_pct) +
                                   " exceeds the " + std::to_string(kSimErrGatePct) +
                                   "% gate");
      }
    }
    return out;
  }

  // Largest relative error of the three seed-averaged paper quantities.
  static double SimErrPct(const std::map<uint64_t, std::vector<double>>& per_seed) {
    double v_mean = 0, v_p99 = 0, f_mean = 0, f_p99 = 0;
    for (const auto& [seed, a] : per_seed) {
      v_mean += a[0];
      v_p99 += a[1];
      f_mean += a[2];
      f_p99 += a[3];
    }
    const double n = static_cast<double>(per_seed.size());
    if (n == 0) {
      return 100.0;
    }
    v_mean /= n;
    v_p99 /= n;
    f_mean /= n;
    f_p99 /= n;
    const double mean_target = v_mean * (1.0 - kPaperFastIovMeanCut);
    const double p99_target = v_p99 * (1.0 - kPaperFastIovP99Cut);
    const double errs[] = {std::abs(v_mean - kPaperVanillaMeanS) / kPaperVanillaMeanS,
                           std::abs(f_mean - mean_target) / mean_target,
                           std::abs(f_p99 - p99_target) / p99_target};
    return 100.0 * *std::max_element(std::begin(errs), std::end(errs));
  }

 private:
  std::vector<ExperimentUnit> (*make_units_)(uint64_t, bool);
  uint64_t seed_;
  bool small_;
  bool paper_;
  std::vector<ExperimentUnit> units_;
};

// Per seed: the nine tools/calibrate stacks, then Vanilla and FastIOV with
// each SeBS app — 17 units of a 200-container burst on the paper host.
std::vector<ExperimentUnit> PaperUnits(uint64_t seed, bool small) {
  const int seeds = small ? 1 : 8;
  const std::vector<StackConfig> stacks = {
      StackConfig::NoNetwork(),         StackConfig::Vanilla(),
      StackConfig::FastIov(),           StackConfig::FastIovWithout('L'),
      StackConfig::FastIovWithout('A'), StackConfig::FastIovWithout('S'),
      StackConfig::FastIovWithout('D'), StackConfig::PreZero(0.5),
      StackConfig::Ipvtap(),
  };
  std::vector<ExperimentUnit> units;
  for (int s = 0; s < seeds; ++s) {
    ExperimentOptions base;
    base.concurrency = 200;
    base.seed = SimSeed(seed, static_cast<uint64_t>(s));
    const std::string tag = "seed" + std::to_string(base.seed) + "/";
    for (const StackConfig& stack : stacks) {
      units.push_back({tag + stack.name, stack, base});
    }
    for (const ServerlessApp& app : ServerlessApp::All()) {
      for (const StackConfig& stack : {StackConfig::Vanilla(), StackConfig::FastIov()}) {
        ExperimentOptions options = base;
        options.app = app;
        units.push_back({tag + stack.name + "+" + app.name, stack, options});
      }
    }
  }
  return units;
}

// Vanilla then FastIOV, 5000 concurrent containers on a 5000-VF host.
std::vector<ExperimentUnit> HostUnits(uint64_t seed, bool small) {
  const int n = small ? 400 : 5000;
  std::vector<ExperimentUnit> units;
  for (const StackConfig& stack : {StackConfig::Vanilla(), StackConfig::FastIov()}) {
    ExperimentOptions options;
    options.concurrency = n;
    options.host = ScaleHost(n);
    options.seed = SimSeed(seed, 0);
    units.push_back({stack.name + "@" + std::to_string(n), stack, options});
  }
  return units;
}

// --- fleet-352x200: uncoupled cells through RunMultiCellStream --------------

class FleetWorkload : public Workload {
 public:
  FleetWorkload(uint64_t seed, bool small, int threads)
      : seed_(seed), cells_(small ? 16 : 352), threads_(threads) {}

  void Setup(Tracer& tracer, int parent) override {
    {
      ScopedSpan span(tracer, "setup.inputs", parent);
      base_ = ExperimentOptions{};
      base_.concurrency = 200;
      base_.seed = SimSeed(seed_, 0);
      base_.timeline_span_sample = 32;
      mc_ = MultiCellOptions{};
      mc_.cells = cells_;
      mc_.cell_threads = threads_;
    }
    // One round of full-size cells: starts the workers and warms their
    // allocator arenas.
    ScopedSpan span(tracer, "setup.warmup", parent);
    ExperimentOptions warm = base_;
    warm.seed = SimSeed(seed_, 63);
    MultiCellOptions wmc = mc_;
    wmc.cells = threads_;
    RunMultiCellStream(StackConfig::FastIov(), warm, wmc, [](int, ExperimentResult&&) {});
  }

  uint64_t LaunchesPerPass() const override {
    return static_cast<uint64_t>(cells_) * static_cast<uint64_t>(base_.concurrency);
  }

  PassOutput RunPass(const RunContext& ctx) override {
    Tracer& tracer = *ctx.tracer;
    PassOutput out;
    ExperimentOptions options = base_;
    options.collect_metrics = ctx.tracer->enabled();
    Summary fleet;
    const int run_id = tracer.Begin("experiments.run", ctx.parent);
    // Runs on worker threads, serialized by the library's reorder lock.
    // Cells execute inside the library, so a cell's unit time is the host
    // time of its result path here: JSON, digest, Summary merge, checks.
    auto sink = [&](int cell, ExperimentResult&& r) {
      const auto t0 = Clock::now();
      ScopedSpan sink_span(tracer, "experiments.sink", run_id, cell);
      const std::string label = "cell" + std::to_string(cell);
      std::string json;
      {
        ScopedSpan span(tracer, "stats.json", sink_span.id(), cell);
        json = ExperimentResultJson(r);
      }
      {
        ScopedSpan span(tracer, "stats.digest", sink_span.id(), cell);
        out.digest.Update(json);
        out.digest.Update("\n");
      }
      {
        ScopedSpan span(tracer, "stats.summary", sink_span.id(), cell);
        fleet.Merge(r.startup);
      }
      {
        ScopedSpan span(tracer, "check", sink_span.id(), cell);
        CheckUnit(r, static_cast<uint64_t>(options.concurrency), label, out);
        MatchReference(json, static_cast<size_t>(cell), label, ctx,
                       static_cast<uint64_t>(options.concurrency), out);
      }
      out.launches += static_cast<uint64_t>(options.concurrency);
      out.json_bytes += json.size();
      out.CountHostModel(r);
      ++out.units;
      out.unit_seconds.push_back(SecondsBetween(t0, Clock::now()));
    };
    const MultiCellStreamStats stats = RunMultiCellStream(StackConfig::FastIov(), options, mc_, sink);
    tracer.End(run_id);
    out.threads_used = stats.threads_used;
    {
      ScopedSpan span(tracer, "check", ctx.parent);
      if (!stats.streamed || stats.threads_used != std::min(threads_, cells_)) {
        out.Fail(out.launches, "fleet did not take the streamed path on the requested threads");
      }
      if (fleet.Count() != LaunchesPerPass()) {
        out.Fail(LaunchesPerPass() - std::min<uint64_t>(fleet.Count(), LaunchesPerPass()),
                 "fleet Summary count " + std::to_string(fleet.Count()) + " != launches " +
                     std::to_string(LaunchesPerPass()));
      }
    }
    {
      ScopedSpan span(tracer, "stats.summary", ctx.parent);
      out.summary_streaming = fleet.streaming();
      const double p50 = fleet.Percentile(50.0);
      const double p99 = fleet.Percentile(99.0);
      out.digest.Update(std::to_string(fleet.Count()) + " " + std::to_string(p50) + " " +
                        std::to_string(p99) + "\n");
    }
    return out;
  }

 private:
  uint64_t seed_;
  int cells_;
  int threads_;
  ExperimentOptions base_;
  MultiCellOptions mc_;
};

// --- cluster-16x5000: RunClusterExperiment under three placement policies ---

class ClusterWorkload : public Workload {
 public:
  ClusterWorkload(uint64_t seed, bool small, int threads)
      : seed_(seed), small_(small), threads_(threads) {}

  void Setup(Tracer& tracer, int parent) override {
    runs_.clear();
    for (const ClusterSchedPolicy policy : {ClusterSchedPolicy::kBinPack,
                                            ClusterSchedPolicy::kLeastLoaded,
                                            ClusterSchedPolicy::kLocality}) {
      PolicyRun run;
      run.options.policy = policy;
      run.options.hosts = small_ ? 4 : 16;
      run.options.trace.launches = small_ ? 300 : 5000;
      run.options.trace.arrival_rate_per_s = 1200.0;
      run.options.rtt = Milliseconds(1);
      run.options.dwell = Seconds(2.0);
      run.options.threads = threads_;
      run.options.seed = SimSeed(seed_, 0);
      std::vector<ClusterLaunch> trace;
      {
        ScopedSpan span(tracer, "cluster.trace_gen", parent);
        trace = GenerateLaunchTrace(run.options.trace, run.options.seed);
      }
      ScopedSpan span(tracer, "cluster.place", parent);
      run.placement = PlaceLaunches(trace, run.options.hosts, run.options.slots_per_host, policy);
      runs_.push_back(std::move(run));
    }
    // A small coupled cluster on the same driver threads.
    ScopedSpan span(tracer, "setup.warmup", parent);
    ClusterOptions warm = runs_.front().options;
    warm.hosts = 4;
    warm.trace.launches = 300;
    warm.seed = SimSeed(seed_, 63);
    ClusterDigest(RunClusterExperiment(warm));
  }

  uint64_t LaunchesPerPass() const override {
    uint64_t n = 0;
    for (const PolicyRun& run : runs_) {
      n += run.options.trace.launches;
    }
    return n;
  }

  PassOutput RunPass(const RunContext& ctx) override {
    Tracer& tracer = *ctx.tracer;
    PassOutput out;
    for (size_t i = 0; i < runs_.size(); ++i) {
      const PolicyRun& run = runs_[i];
      const int64_t unit = static_cast<int64_t>(i);
      const auto t0 = Clock::now();
      ScopedSpan unit_span(tracer, "unit", ctx.parent, unit);
      ClusterOptions options = run.options;
      options.profile_driver = ctx.tracer->enabled();
      std::optional<ClusterResult> result;
      {
        ScopedSpan span(tracer, "experiments.run", unit_span.id(), unit);
        result = RunClusterExperiment(options);
      }
      std::string digest;
      {
        ScopedSpan span(tracer, "stats.json", unit_span.id(), unit);
        digest = ClusterDigest(*result);
      }
      {
        ScopedSpan span(tracer, "stats.digest", unit_span.id(), unit);
        out.digest.Update(digest);
        out.digest.Update("\n");
      }
      {
        ScopedSpan span(tracer, "check", unit_span.id(), unit);
        Check(*result, run, out);
        if (ctx.reference != nullptr && (i >= ctx.reference->cluster_digests.size() ||
                                         digest != ctx.reference->cluster_digests[i])) {
          out.Fail(result->launches, "traced ClusterDigest differs from the untraced run");
        }
      }
      {
        ScopedSpan span(tracer, "stats.summary", unit_span.id(), unit);
        for (const ClusterHostOutcome& host : result->host_results) {
          out.gate_wait.Merge(host.extras.gate_wait);
        }
      }
      out.cluster_digests.push_back(std::move(digest));
      out.launches += result->launches;
      out.json_bytes += out.cluster_digests.back().size();
      for (const ClusterHostOutcome& host : result->host_results) {
        out.CountHostModel(host.result);
      }
      if (result->control_plane.has_value()) {
        out.events += result->control_plane->events_processed;
        out.cp_events += result->control_plane->events_processed;
      }
      out.cp_rejected += result->cp_rejected;
      out.registry_misses += result->registry_cache_misses;
      out.imbalance_sum += result->imbalance;
      const ParallelExecStats& e = result->exec;
      out.threads_used = i == 0 ? e.threads_used : std::min(out.threads_used, e.threads_used);
      out.driver.windows += e.windows;
      out.driver.cell_rounds += e.cell_rounds;
      out.driver.cell_rounds_elided += e.cell_rounds_elided;
      out.driver.messages_delivered += e.messages_delivered;
      out.driver.barrier_wait_seconds += e.barrier_wait_seconds;
      out.driver.profile_deliver_seconds += e.profile_deliver_seconds;
      out.driver.profile_execute_seconds += e.profile_execute_seconds;
      out.driver.profile_plan_seconds += e.profile_plan_seconds;
      out.driver_span_weighted += e.mean_window_span_us * static_cast<double>(e.windows);
      out.driver_util_sum += e.Utilization();
      ++out.driver_calls;
      ++out.units;
      out.unit_seconds.push_back(SecondsBetween(t0, Clock::now()));
    }
    return out;
  }

 private:
  struct PolicyRun {
    ClusterOptions options;
    ClusterPlacement placement;
  };

  // Accounting, end-of-run leaks and IPAM conservation per host, and the
  // program's placement against the one recomputed from the same inputs.
  static void Check(const ClusterResult& r, const PolicyRun& run, PassOutput& out) {
    const std::string policy = ClusterSchedPolicyName(run.options.policy);
    if (r.per_host_assigned != run.placement.per_host) {
      out.Fail(r.launches, policy + ": placement differs from PlaceLaunches on the same trace");
    }
    if (r.cp_rejected + r.aborted != 0) {
      out.Fail(r.cp_rejected + r.aborted,
               policy + ": " + std::to_string(r.cp_rejected) + " rejected, " +
                   std::to_string(r.aborted) + " aborted");
    }
    for (size_t h = 0; h < r.host_results.size(); ++h) {
      const ClusterHostExtras& e = r.host_results[h].extras;
      const ExperimentResult& hr = r.host_results[h].result;
      std::ostringstream why;
      if (e.completed + e.cp_rejected + e.aborted != e.assigned) {
        why << " completed+rejected+aborted != assigned (" << e.assigned << ")";
      }
      if (e.final_live_instances != 0 || e.end_pinned_pages != 0 || e.end_nic_vfs_in_use != 0 ||
          e.end_vfio_open != 0 || e.end_iommu_domains != 0 || e.end_fastiovd_pending != 0) {
        why << " end-of-run leak (live " << e.final_live_instances << ", pinned "
            << e.end_pinned_pages << ", vfs " << e.end_nic_vfs_in_use << ", vfio "
            << e.end_vfio_open << ", iommu " << e.end_iommu_domains << ", fastiovd "
            << e.end_fastiovd_pending << ")";
      }
      if (hr.residue_reads != 0 || hr.corruptions != 0) {
        why << " residue_reads=" << hr.residue_reads << " corruptions=" << hr.corruptions;
      }
      if (!why.str().empty()) {
        // Rejected/aborted launches are already counted above.
        out.Fail(e.completed, policy + "/host" + std::to_string(h) + ":" + why.str());
      }
    }
    if (!r.control_plane.has_value() ||
        r.control_plane->ipam_free_end != r.control_plane->ipam_pool) {
      out.Fail(r.launches, policy + ": IPAM pool not conserved");
    }
  }

  uint64_t seed_;
  bool small_;
  int threads_;
  std::vector<PolicyRun> runs_;
};

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void WriteMetrics(JsonWriter& json, const std::vector<Metric>& metrics) {
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name).BeginObject().Key("value").RawValue(Number(m.value)).KV("unit", m.unit)
        .EndObject();
  }
  json.EndObject();
}

// Per-layer metrics of one traced pass. Layers a workload never enters
// report 0 (no windows, no control-plane events, ...).
std::vector<Metric> LayerMetrics(const PassOutput& p, const Tracer& setup, const Tracer& tracer,
                                 double wall_s, double cpu_s, double untraced_wall_s) {
  const double run_s = tracer.Total("experiments.run");
  const double rounds = static_cast<double>(p.driver.cell_rounds + p.driver.cell_rounds_elided);
  const double calls = static_cast<double>(std::max<uint64_t>(p.driver_calls, 1));
  return {
      {"simcore.events", static_cast<double>(p.events), "count"},
      {"simcore.ns_per_event", p.events > 0 ? 1e9 * run_s / static_cast<double>(p.events) : 0.0,
       "ns"},
      {"driver.windows", static_cast<double>(p.driver.windows), "count"},
      {"driver.cell_rounds", static_cast<double>(p.driver.cell_rounds), "count"},
      {"driver.cell_rounds_elided", static_cast<double>(p.driver.cell_rounds_elided), "count"},
      {"driver.elision_rate",
       rounds > 0 ? static_cast<double>(p.driver.cell_rounds_elided) / rounds : 0.0, "ratio"},
      {"driver.messages", static_cast<double>(p.driver.messages_delivered), "count"},
      {"driver.mean_window_span_us",
       p.driver.windows > 0 ? p.driver_span_weighted / static_cast<double>(p.driver.windows)
                            : 0.0,
       "us"},
      {"driver.barrier_wait_s", p.driver.barrier_wait_seconds, "s"},
      {"driver.utilization", p.driver_util_sum / calls, "ratio"},
      {"driver.deliver_s", p.driver.profile_deliver_seconds, "s"},
      {"driver.execute_s", p.driver.profile_execute_seconds, "s"},
      {"driver.plan_s", p.driver.profile_plan_seconds, "s"},
      {"experiments.run_s", run_s, "s"},
      {"experiments.units", static_cast<double>(p.units), "count"},
      {"experiments.sink_s", tracer.Total("experiments.sink"), "s"},
      {"proc.cpu_util", wall_s > 0 ? cpu_s / (wall_s * p.threads_used) : 0.0, "ratio"},
      {"stats.json_s", tracer.Total("stats.json"), "s"},
      {"stats.json_bytes", static_cast<double>(p.json_bytes), "B"},
      {"stats.digest_s", tracer.Total("stats.digest"), "s"},
      {"stats.summary_s", tracer.Total("stats.summary"), "s"},
      {"stats.summary_streaming", p.summary_streaming ? 1.0 : 0.0, "bool"},
      // Set-up generates the trace and placement once per repetition.
      {"cluster.trace_gen_s", setup.Total("cluster.trace_gen") / kSetupReps, "s"},
      {"cluster.place_s", setup.Total("cluster.place") / kSetupReps, "s"},
      {"cluster.cp_events", static_cast<double>(p.cp_events), "count"},
      {"cluster.cp_rejected", static_cast<double>(p.cp_rejected), "count"},
      {"cluster.registry_misses", static_cast<double>(p.registry_misses), "count"},
      {"cluster.imbalance", p.driver_calls > 0 ? p.imbalance_sum / calls : 0.0, "ratio"},
      {"cluster.gate_wait_p99_s", p.gate_wait.Empty() ? 0.0 : p.gate_wait.Percentile(99.0), "s"},
      {"mem.pages_zeroed", static_cast<double>(p.pages_zeroed), "count"},
      {"mem.fault_zeroed_pages", static_cast<double>(p.fault_zeroed_pages), "count"},
      {"mem.background_zeroed_pages", static_cast<double>(p.background_zeroed_pages), "count"},
      {"mem.remote_allocations", static_cast<double>(p.remote_allocations), "count"},
      {"vfio.devset_lock_contention", static_cast<double>(p.devset_lock_contention), "count"},
      {"bench.check_s", tracer.Total("check"), "s"},
      {"trace.overhead_pct", untraced_wall_s > 0 ? 100.0 * (wall_s / untraced_wall_s - 1.0) : 0.0,
       "%"},
  };
}

int Run(const FlagParser& flags, const std::string& name, uint64_t seed, Workload& workload,
        int threads_wanted, int nproc, bool optimized, Clock::time_point process_start);

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  FlagParser flags;
  flags.AddString("workload", "", "paper-200 | host-5000 | fleet-352x200 | cluster-16x5000");
  flags.AddInt("seed", 1, "workload seed; all inputs derive from it");
  flags.AddInt("seconds", 10, "timed-part budget: passes run while the next one fits");
  flags.AddInt("trace", 0, "1 = traced per-layer run (reference pass + traced pass)");
  flags.AddBool("small", false, "scaled-down inputs (self-test)");
  flags.AddString("expect-digest", "", "pinned result digest; a mismatch fails the run");
  flags.AddString("spans-out", "", "traced run: write every span as JSON to this file");
  flags.AddString("revision", "unknown", "source revision recorded in the manifest");
  flags.AddBool("allow-unoptimized", false, "run even in a build without optimisation");
  std::string error;
  if (!flags.Parse(argc, argv, &error) || !flags.positional().empty()) {
    std::fprintf(stderr, "perfbench: %s\n\n%s", error.empty() ? "unexpected argument" : error.c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.HelpText(argv[0]).c_str(), stdout);
    return 0;
  }
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (!optimized && !flags.GetBool("allow-unoptimized")) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimised build (%s); "
                 "pass --allow-unoptimized to override\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  const std::string name = flags.GetString("workload");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const bool small = flags.GetBool("small");
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Each workload's thread count is part of its definition: the fleet runs
  // at T=4, the others at T=1 (README.md says why the cluster does). Fewer
  // cores clamp it; the manifest then marks the run as not comparable with
  // an unclamped one.
  const int threads_wanted = name == "fleet-352x200" ? 4 : 1;
  const int threads = std::max(1, std::min(threads_wanted, nproc));

  std::unique_ptr<Workload> workload;
  if (name == "paper-200") {
    workload = std::make_unique<ExperimentWorkload>(&PaperUnits, seed, small, true);
  } else if (name == "host-5000") {
    workload = std::make_unique<ExperimentWorkload>(&HostUnits, seed, small, false);
  } else if (name == "fleet-352x200") {
    workload = std::make_unique<FleetWorkload>(seed, small, threads);
  } else if (name == "cluster-16x5000") {
    workload = std::make_unique<ClusterWorkload>(seed, small, threads);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  try {
    return Run(flags, name, seed, *workload, threads_wanted, nproc, optimized, process_start);
  } catch (const std::exception& e) {
    // A library exception fails the run rather than aborting it unreported.
    std::printf("{\"report\": {\"error\": \"%s\"}}\n",
                JsonWriter::Escape(e.what()).c_str());
    const uint64_t launches = std::max<uint64_t>(workload->LaunchesPerPass(), 1);
    std::printf("{\"correct\":false,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{}}\n",
                static_cast<unsigned long long>(launches),
                static_cast<unsigned long long>(launches));
    return 1;
  }
}

namespace {

// Set-up, timed passes, checks and output of one workload run; returns the
// exit code.
int Run(const FlagParser& flags, const std::string& name, uint64_t seed, Workload& workload,
        int threads_wanted, int nproc, bool optimized, Clock::time_point process_start) {
  const double seconds = static_cast<double>(flags.GetInt("seconds"));
  const bool traced = flags.GetInt("trace") != 0;
  const bool small = flags.GetBool("small");

  // Set-up, repeated; its median is setup_s. The last repetition's inputs
  // are the ones the passes use.
  Tracer setup_tracer(traced);
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    ScopedSpan span(setup_tracer, "setup", -1, rep);
    workload.Setup(setup_tracer, span.id());
    setup_times.push_back(SecondsBetween(t0, Clock::now()));
  }
  const double start_to_setup_end = SecondsBetween(process_start, Clock::now());
  std::printf("{\"plan\": {\"workload\": \"%s\", \"launches_per_pass\": %llu}}\n", name.c_str(),
              static_cast<unsigned long long>(workload.LaunchesPerPass()));
  std::fflush(stdout);

  // Timed part.
  Tracer off(false);
  std::vector<PassOutput> passes;
  std::vector<double> pass_wall, pass_cpu;
  Tracer pass_tracer(traced);
  double traced_wall = 0.0, traced_cpu = 0.0;
  std::optional<PassOutput> traced_pass;
  // Peak RSS through set-up and the first pass. Later passes can add a few
  // MiB of allocator growth, and how many run depends on the box's speed.
  double peak_rss_mib = 0.0;
  const auto timed_start = Clock::now();
  while (true) {
    const auto t0 = Clock::now();
    const double c0 = ProcessCpuSeconds();
    passes.push_back(workload.RunPass(RunContext{&off, -1, nullptr}));
    pass_wall.push_back(SecondsBetween(t0, Clock::now()));
    pass_cpu.push_back(ProcessCpuSeconds() - c0);
    if (passes.size() == 1) {
      peak_rss_mib = PeakRssMiB();
    }
    const double elapsed = SecondsBetween(timed_start, Clock::now());
    if (traced || elapsed + Quantile(pass_wall, 0.5) > seconds) {
      break;
    }
  }
  if (traced) {
    const auto t0 = Clock::now();
    const double c0 = ProcessCpuSeconds();
    ScopedSpan span(pass_tracer, "pass", -1);
    traced_pass = workload.RunPass(RunContext{&pass_tracer, span.id(), &passes.front()});
    pass_tracer.End(span.id());
    traced_wall = SecondsBetween(t0, Clock::now());
    traced_cpu = ProcessCpuSeconds() - c0;
  }

  // Correctness across passes.
  const PassOutput& first = passes.front();
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto absorb = [&](const PassOutput& p) {
    attempted += p.launches;
    failed += std::min(p.failed, p.launches);
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  };
  for (size_t i = 0; i < passes.size(); ++i) {
    if (i > 0 && passes[i].digest.value() != first.digest.value()) {
      passes[i].Fail(passes[i].launches, "pass " + std::to_string(i) +
                                             " digest differs from pass 0 (nondeterminism)");
    }
    absorb(passes[i]);
  }
  const std::string digest = first.digest.Hex();
  const std::string expected = flags.GetString("expect-digest");
  if (!expected.empty() && expected != digest) {
    failed = attempted;
    failures.push_back("digest " + digest + " != pinned " + expected);
  }
  if (traced_pass.has_value()) {
    absorb(*traced_pass);
  }
  const bool correct = failed == 0 && failures.empty();

  // End-to-end metrics (untraced passes only). A unit's time is its median
  // over the passes, so one disturbed pass does not move the percentiles.
  std::vector<double> unit_ms;
  for (size_t i = 0; i < first.unit_seconds.size(); ++i) {
    std::vector<double> samples;
    for (const PassOutput& p : passes) {
      samples.push_back(1000.0 * p.unit_seconds[i]);
    }
    unit_ms.push_back(Quantile(samples, 0.5));
  }
  const double wall_s = Quantile(pass_wall, 0.5);
  const double cpu_s = Quantile(pass_cpu, 0.5);
  std::vector<Metric> e2e = {
      {"wall_s", wall_s, "s"},
      {"launches_per_s", static_cast<double>(first.launches) / wall_s, "1/s"},
      {"cpu_s", cpu_s, "s"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
      {"setup_s", Quantile(setup_times, 0.5), "s"},
  };
  // Report-only: unit percentiles (with their sample count) and the
  // failure ratio, which is 0 on a correct run.
  std::vector<Metric> report = e2e;
  report.push_back({"unit_ms_p50", Quantile(unit_ms, 0.5), "ms"});
  report.push_back({"unit_ms_p90", Quantile(unit_ms, 0.9), "ms"});
  report.push_back({"unit_ms_n", static_cast<double>(unit_ms.size()), "count"});
  report.push_back({"failed_frac",
                    attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                                  : 1.0,
                    "ratio"});
  if (first.sim_err_pct >= 0) {
    report.push_back({"sim_err_pct", first.sim_err_pct, "%"});
  }
  std::vector<Metric> layers;
  if (traced_pass.has_value()) {
    layers = LayerMetrics(*traced_pass, setup_tracer, pass_tracer, traced_wall, traced_cpu,
                          pass_wall.front());
    report.insert(report.end(), layers.begin(), layers.end());
  }

  // Report line: manifest, every metric, failures.
  {
    JsonWriter json(std::cout);
    json.BeginObject().Key("report").BeginObject();
    json.Key("manifest")
        .BeginObject()
        .KV("workload", name)
        .KV("seed", seed)
        .KV("small", small)
        .KV("traced", traced)
        .KV("nproc", static_cast<int64_t>(nproc))
        .KV("threads_requested", static_cast<int64_t>(threads_wanted))
        .KV("threads_used", static_cast<int64_t>(first.threads_used))
        .KV("threads_clamped", first.threads_used < threads_wanted)
        .KV("build_type", PERFBENCH_BUILD_TYPE)
        .KV("optimized", optimized)
        .KV("compiler", PERFBENCH_COMPILER)
        .KV("revision", flags.GetString("revision"))
        .KV("passes", static_cast<int64_t>(passes.size()))
        .KV("traced_pass_wall_s", traced_wall)
        .KV("process_start_to_timed_s", start_to_setup_end)
        .EndObject();
    json.Key("pass_wall_s").BeginArray();
    for (double w : pass_wall) {
      json.Value(w);
    }
    json.EndArray();
    json.KV("digest", digest);
    json.KV("correct", correct);
    json.Key("failures").BeginArray();
    for (const std::string& f : failures) {
      json.Value(f);
    }
    json.EndArray();
    json.Key("metrics");
    WriteMetrics(json, report);
    if (traced) {
      json.Key("spans").BeginObject();
      for (const Tracer* t : {&setup_tracer, &pass_tracer}) {
        for (const auto& [span, totals] : t->Aggregate()) {
          json.Key(std::string(t == &setup_tracer ? "setup/" : "pass/") + span)
              .BeginObject()
              .KV("count", totals.count)
              .KV("total_s", totals.total_s)
              .KV("self_s", totals.self_s)
              .EndObject();
        }
      }
      json.EndObject();
    }
    json.EndObject().EndObject();
    std::cout << '\n';
  }
  const std::string spans_out = flags.GetString("spans-out");
  if (traced && !spans_out.empty()) {
    std::ofstream f(spans_out);
    f << "{\"setup\":";
    setup_tracer.Write(f);
    f << ",\"pass\":";
    pass_tracer.Write(f);
    f << "}\n";
  }

  // Contract line: always the last line of stdout.
  {
    JsonWriter json(std::cout);
    json.BeginObject()
        .KV("correct", correct)
        .KV("attempted", attempted)
        .KV("failed", correct ? uint64_t{0} : std::max<uint64_t>(failed, 1))
        .Key("metrics");
    WriteMetrics(json, traced ? layers : e2e);
    json.EndObject();
    std::cout << std::endl;
  }
  return correct ? 0 : 1;
}

}  // namespace
