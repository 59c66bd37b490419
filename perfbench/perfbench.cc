// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <sd-100k|td-storm-10k>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// --trace 0 measures the end-to-end metrics with telemetry off:
//   1. setup_reps times MakeSyntheticScenario + Builder::Build() (setup_s),
//      then Run() of a fixed warmup + epochs job on the last experiment
//      (total_s = its set-up plus the job; bytes_per_epoch from RunResult).
//   2. A single-threaded closed loop on the same experiment: StepEpoch,
//      timed one epoch at a time, for --seconds seconds and at least
//      kMinEpochs epochs (epoch_ms_p50/p90, sensor_epochs_per_s).
// --trace 1 composes the scenario from its public steps (timed one by one,
//   and checked against MakeSyntheticScenario), builds a traced and an
//   untraced experiment over it, runs both through the same job and
//   interleaves their closed loops. The per-layer metrics come from the
//   traced twin's telemetry; the untraced twin gives the tracing overhead
//   and must produce a bit-identical digest.
//
// Every epoch is checked (finite, present answers; contributors within the
// sensor count; non-zero radio bytes). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "api/experiment.h"
#include "net/connectivity.h"
#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "topology/rings.h"
#include "topology/tree_builder.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::WorkloadSpec;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = perfbench::FindWorkload(v);
      if (a.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
      if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload == nullptr) Usage("--workload is required");
  return a;
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// FNV-1a over the exact bits of a run's per-epoch answers and byte tallies.
class Digest {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  void AddEpoch(const td::EpochResult& r) {
    Add(static_cast<uint64_t>(r.epoch));
    Add(r.value);
    Add(static_cast<uint64_t>(r.true_contributing));
    for (double v : r.query_values) Add(v);
    for (double v : r.windowed_values) Add(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Per-epoch output checks and the attempted/failed tally.
class EpochChecker {
 public:
  EpochChecker(size_t sensors, size_t num_queries, bool windowed)
      : sensors_(sensors), num_queries_(num_queries), windowed_(windowed) {}

  void Check(const td::EpochResult& r, uint64_t bytes) {
    ++attempted_;
    bool ok = std::isfinite(r.value) && r.true_contributing <= sensors_ &&
              bytes > 0 && r.query_values.size() == num_queries_ &&
              r.windowed_values.size() == (windowed_ ? num_queries_ : 0);
    for (double v : r.query_values) ok = ok && std::isfinite(v);
    for (double v : r.windowed_values) ok = ok && std::isfinite(v);
    if (!ok) {
      if (failed_ == 0) {
        std::printf("first failed epoch: %u value=%g contributing=%zu "
                    "bytes=%" PRIu64 "\n",
                    r.epoch, r.value, r.true_contributing, bytes);
      }
      ++failed_;
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  size_t sensors_;
  size_t num_queries_;
  bool windowed_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Output of one fixed warmup + epochs job.
struct JobOutcome {
  double bytes_per_epoch = 0.0;
  double rms = 0.0;
  uint64_t digest = 0;
};

JobOutcome RunJob(td::Experiment& exp, EpochChecker* checker) {
  const td::RunResult rr = exp.Run();
  Digest d;
  for (const td::EpochResult& e : rr.epochs) {
    d.AddEpoch(e);
    checker->Check(e, rr.energy.bytes);
  }
  d.Add(static_cast<uint64_t>(rr.energy.bytes));
  return {rr.bytes_per_epoch, rr.rms, d.value()};
}

/// One closed-loop step: the timed StepEpoch plus its checks and digests.
/// `prefix` covers the first `prefix_epochs` steps, which every run of the
/// workload takes whatever its speed; `full` covers all of them.
struct Stepper {
  td::Experiment* exp;
  size_t prefix_epochs;
  uint64_t bytes_prev;
  size_t steps = 0;
  Digest prefix;
  Digest full;

  Stepper(td::Experiment* e, size_t prefix_epochs)
      : exp(e),
        prefix_epochs(prefix_epochs),
        bytes_prev(e->network().total_energy().bytes) {}

  double Step(uint32_t epoch, EpochChecker* checker) {
    const auto t0 = Clock::now();
    const td::EpochResult r = exp->StepEpoch(epoch);
    const double ms = Ms(Clock::now() - t0);
    const uint64_t bytes = exp->network().total_energy().bytes;
    checker->Check(r, bytes - bytes_prev);
    full.AddEpoch(r);
    full.Add(bytes - bytes_prev);
    if (steps++ < prefix_epochs) {
      prefix.AddEpoch(r);
      prefix.Add(bytes - bytes_prev);
    }
    bytes_prev = bytes;
    return ms;
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Closed-loop epochs the printed digest covers; every run takes at least
/// this many, so traced and untraced runs of one seed print the same digest.
constexpr size_t kDigestEpochs = 20;

/// Fewest untraced closed-loop epochs: p90 keeps ten samples beyond it.
constexpr size_t kMinEpochs = 100;

struct Run {
  const Args& args;
  const WorkloadSpec& w;
  size_t sensors;
  double side;
  uint32_t horizon;
  EpochChecker checker;
  bool correct = true;
  std::vector<Metric> metrics;

  explicit Run(const Args& a)
      : args(a),
        w(*a.workload),
        sensors(a.tiny ? a.workload->tiny_sensors : a.workload->sensors),
        side(perfbench::FieldSide(sensors)),
        horizon(a.workload->warmup + a.workload->epochs +
                a.workload->max_epochs),
        checker(sensors, a.workload->num_queries,
                a.workload->num_queries > 0) {}

  void Fail(const char* what) {
    std::printf("check failed: %s\n", what);
    correct = false;
  }

  td::Experiment Build(const td::Scenario& sc, bool telemetry) {
    td::Experiment::Builder b;
    perfbench::Configure(b, w, sc, args.seed, horizon);
    b.Warmup(w.warmup).Epochs(w.epochs);
    if (telemetry) b.Telemetry();
    return b.Build();
  }

  void CheckJob(const JobOutcome& job) {
    if (!(job.rms <= w.rms_ceiling)) Fail("rel_rms above the workload ceiling");
  }

  bool LoopDone(size_t epochs, size_t min_epochs,
                Clock::time_point start) const {
    if (epochs >= w.max_epochs) return true;
    return epochs >= min_epochs &&
           Ms(Clock::now() - start) >= args.seconds * 1000.0;
  }

  uint64_t EndToEnd();
  uint64_t Traced();
};

uint64_t Run::EndToEnd() {
  std::vector<double> setup_s;
  std::unique_ptr<td::Scenario> sc;
  std::optional<td::Experiment> exp;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    exp.reset();
    sc.reset();
    const auto t0 = Clock::now();
    sc = std::make_unique<td::Scenario>(td::MakeSyntheticScenario(
        args.seed, sensors, side, side, perfbench::kRadioRange));
    exp.emplace(Build(*sc, /*telemetry=*/false));
    setup_s.push_back(Ms(Clock::now() - t0) / 1000.0);
  }
  const auto t0 = Clock::now();
  const JobOutcome job = RunJob(*exp, &checker);
  const double total_s = setup_s.back() + Ms(Clock::now() - t0) / 1000.0;
  CheckJob(job);

  Stepper stepper(&*exp, kDigestEpochs);
  uint32_t epoch = w.warmup + w.epochs;
  std::vector<double> epoch_ms;
  const auto start = Clock::now();
  while (!LoopDone(epoch_ms.size(), kMinEpochs, start)) {
    epoch_ms.push_back(stepper.Step(epoch++, &checker));
  }
  std::printf("closed loop: %zu epochs\n", epoch_ms.size());

  metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"epoch_ms_p50", Quantile(epoch_ms, 0.5), "ms"},
      {"epoch_ms_p90", Quantile(epoch_ms, 0.9), "ms"},
      {"sensor_epochs_per_s",
       static_cast<double>(sensors) * static_cast<double>(epoch_ms.size()) /
           (Sum(epoch_ms) / 1000.0),
       "1/s"},
      {"total_s", total_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bytes_per_epoch", job.bytes_per_epoch, "B"},
  };
  std::printf("fixed job: rel_rms %.6f\n", job.rms);
  Digest d;
  d.Add(job.digest);
  d.Add(stepper.prefix.value());
  return d.value();
}

/// Mean ns per BankRleBytes call over 40-bitmap FM banks filled like the
/// workload's ring synopses: every sensor inserts its primary-query item and
/// ORs its bank into each upstream neighbour's, outermost ring first.
double BankRleBytesNs(const td::Scenario& sc, const WorkloadSpec& w,
                      uint64_t seed, bool* deterministic) {
  constexpr int kBitmaps = 40;
  const size_t n = sc.deployment.size();
  const td::FmSketch empty(kBitmaps, /*seed=*/0x5eed);
  std::vector<td::FmSketch> banks(n, empty);
  const td::UintReadingFn reading = perfbench::DriftingReading(seed);
  for (td::NodeId v = 1; v < n; ++v) {
    if (w.sum_synopsis) {
      banks[v].AddValue(v, reading(v, w.warmup));
    } else {
      banks[v].AddKey(v);
    }
  }
  for (int level = sc.rings.max_level(); level >= 1; --level) {
    for (td::NodeId v : sc.rings.NodesAtLevel(level)) {
      for (td::NodeId p : sc.rings.UpstreamNeighbors(sc.connectivity, v)) {
        banks[p].Merge(banks[v]);
      }
    }
  }
  std::vector<uint32_t> arena;
  size_t count = 0;
  for (td::NodeId v = 1; v < n; ++v) {
    if (sc.rings.level(v) < 1) continue;
    arena.insert(arena.end(), banks[v].bitmaps().begin(),
                 banks[v].bitmaps().end());
    ++count;
  }
  if (count == 0) return 0.0;

  uint64_t calls = 0;
  uint64_t first_pass_bytes = 0;
  *deterministic = true;
  const auto t0 = Clock::now();
  do {
    uint64_t pass_bytes = 0;
    for (size_t i = 0; i < count; ++i) {
      pass_bytes += td::BankRleBytes(arena.data() + i * kBitmaps, kBitmaps);
    }
    if (calls == 0) first_pass_bytes = pass_bytes;
    *deterministic = *deterministic && pass_bytes == first_pass_bytes;
    calls += count;
  } while (Ms(Clock::now() - t0) < 200.0);
  return Ms(Clock::now() - t0) * 1e6 / static_cast<double>(calls);
}

bool SameTree(const td::Tree& a, const td::Tree& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (td::NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.parent(v) != b.parent(v)) return false;
  }
  return true;
}

/// Stable metric names for the profiler's phases; a phase this table does
/// not know yet is reported as phase.<name>_ms.
std::string PhaseMetric(const std::string& phase) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"sweep", "engine.sweep_ms"},
      {"adapt", "td.adapt_ms"},
      {"window_combine", "window.combine_ms"},
      {"rle_encode", "sketch.rle_encode_ms"},
      {"fed_merge", "fed.merge_ms"},
  };
  for (const auto& [from, to] : kNames) {
    if (phase == from) return to;
  }
  return "phase." + phase + "_ms";
}

uint64_t Run::Traced() {
  // Scenario from its public steps, each timed.
  auto t = Clock::now();
  auto lap = [&t]() {
    const auto now = Clock::now();
    const double ms = Ms(now - t);
    t = now;
    return ms;
  };
  td::Rng rng(args.seed);
  td::Deployment dep = td::MakeSyntheticDeployment(&rng, sensors, side, side);
  lap();
  td::Connectivity conn =
      td::Connectivity::FromRadioRange(dep, perfbench::kRadioRange);
  const double connectivity_ms = lap();
  td::Rings rings = td::Rings::Build(conn, dep.base());
  const double rings_ms = lap();
  // The tree seeds MakeSyntheticScenario derives; the comparison below
  // catches any drift.
  td::Rng tree_rng(args.seed ^ 0x7ee5ULL);
  td::Tree tree = td::BuildOptimizedTree(conn, rings, &tree_rng);
  const double tree_opt_ms = lap();
  td::Rng tag_rng(args.seed ^ 0x7a9ULL);
  td::Tree tag_tree = td::BuildTagTree(conn, rings, &tag_rng);
  const double tree_tag_ms = lap();
  const td::Scenario sc{std::move(dep), std::move(conn), std::move(rings),
                        std::move(tree), std::move(tag_tree)};
  {
    const td::Scenario ref = td::MakeSyntheticScenario(
        args.seed, sensors, side, side, perfbench::kRadioRange);
    if (!SameTree(sc.tree, ref.tree) || !SameTree(sc.tag_tree, ref.tag_tree)) {
      Fail("composed trees differ from MakeSyntheticScenario's");
    }
  }

  bool rle_deterministic = false;
  const double rle_ns = BankRleBytesNs(sc, w, args.seed, &rle_deterministic);
  if (!rle_deterministic) Fail("BankRleBytes is not deterministic");

  lap();
  td::Experiment traced = Build(sc, /*telemetry=*/true);
  const double build_ms = lap();
  td::Experiment plain = Build(sc, /*telemetry=*/false);

  // The untraced twin's checks are not counted: it repeats the same epochs.
  EpochChecker twin_checker = checker;
  const JobOutcome job = RunJob(traced, &checker);
  const JobOutcome plain_job = RunJob(plain, &twin_checker);
  CheckJob(job);
  if (job.digest != plain_job.digest) Fail("traced job digest differs");

  Stepper traced_step(&traced, kDigestEpochs);
  Stepper plain_step(&plain, kDigestEpochs);
  uint32_t epoch = w.warmup + w.epochs;
  const td::EngineStats adapt = traced.engine().stats();
  traced.telemetry()->Reset();
  const td::EnergyStats energy0 = traced.network().total_energy();
  const uint64_t reprocessed0 = traced.engine().nodes_reprocessed();
  std::vector<double> traced_ms, plain_ms;
  double delta_nodes = 0.0;
  const auto start = Clock::now();
  while (!LoopDone(traced_ms.size(), kDigestEpochs, start)) {
    // Alternate which twin goes first so cache warmth favours neither.
    if (traced_ms.size() % 2 == 0) {
      traced_ms.push_back(traced_step.Step(epoch, &checker));
      plain_ms.push_back(plain_step.Step(epoch, &twin_checker));
    } else {
      plain_ms.push_back(plain_step.Step(epoch, &twin_checker));
      traced_ms.push_back(traced_step.Step(epoch, &checker));
    }
    const size_t delta = traced.engine().delta_size();
    delta_nodes += delta > 0 ? static_cast<double>(delta - 1) : 0.0;
    ++epoch;
  }
  if (traced_step.full.value() != plain_step.full.value()) {
    Fail("traced closed-loop digest differs from the untraced twin's");
  }
  std::printf("closed loop: %zu epochs per twin\n", traced_ms.size());

  const double epochs = static_cast<double>(traced_ms.size());
  const td::obs::TelemetrySummary s = traced.telemetry()->Summarize();
  const td::EnergyStats& energy1 = traced.network().total_energy();
  const double bytes = static_cast<double>(energy1.bytes - energy0.bytes);
  const double transmissions =
      static_cast<double>(energy1.transmissions - energy0.transmissions);
  const double reprocessed =
      perfbench::HasReplayCache(traced.engine())
          ? static_cast<double>(traced.engine().nodes_reprocessed() -
                                reprocessed0) /
                epochs
          : static_cast<double>(sensors);
  const double header =
      transmissions * static_cast<double>(td::kMessageHeaderBytes) / epochs;
  const double tx = s.metric("net.tx.transmissions");
  const double unicasts = s.metric("net.unicast.count");

  metrics = {
      {"net.connectivity_ms", connectivity_ms, "ms"},
      {"topology.rings_ms", rings_ms, "ms"},
      {"topology.tree_opt_ms", tree_opt_ms, "ms"},
      {"topology.tree_tag_ms", tree_tag_ms, "ms"},
      {"api.build_ms", build_ms, "ms"},
      {"sketch.bank_rle_bytes_ns", rle_ns, "ns"},
  };
  double accounted_ms = 0.0;
  for (const td::obs::PhaseRow& row : s.phases) {
    const double ms = static_cast<double>(row.ns) / 1e6 / epochs;
    metrics.push_back({PhaseMetric(row.name), ms, "ms"});
    if (row.name == "sweep" || row.name == "adapt" ||
        row.name == "window_combine") {
      accounted_ms += ms;
    }
  }
  metrics.insert(
      metrics.end(),
      {
          {"api.step_rest_ms", Sum(traced_ms) / epochs - accounted_ms, "ms"},
          {"td.delta_nodes", delta_nodes / epochs, "count"},
          {"td.decisions", static_cast<double>(adapt.decisions), "count"},
          {"td.expansions", static_cast<double>(adapt.expansions),
           "count"},
          {"td.shrinks", static_cast<double>(adapt.shrinks), "count"},
          {"window.state_merges_per_epoch",
           s.metric("window.state_merges") / epochs, "count"},
          {"workload.repairs_per_epoch", s.metric("dynamics.repairs") / epochs,
           "count"},
          {"core.nodes_reprocessed_per_epoch", reprocessed, "count"},
          {"core.replay_hit_ratio",
           1.0 - reprocessed / static_cast<double>(sensors), "1"},
          {"net.tx.transmissions_per_epoch", tx / epochs, "count"},
          {"net.tx.message_bytes_mean",
           tx > 0 ? s.metric("net.tx.bytes") / tx : 0.0, "B"},
          {"agg.header_bytes_per_epoch", header, "B"},
          {"agg.payload_bytes_per_epoch",
           bytes / epochs - header, "B"},
          {"net.unicast.attempts_per_epoch",
           s.metric("net.unicast.attempts") / epochs, "count"},
          {"net.unicast.delivery_ratio",
           unicasts > 0 ? s.metric("net.unicast.delivered") / unicasts : 0.0,
           "1"},
          {"rel_rms", job.rms, "1"},
          {"obs.overhead_pct", 100.0 * (Sum(traced_ms) / Sum(plain_ms) - 1.0),
           "%"},
      });
  Digest d;
  d.Add(job.digest);
  d.Add(traced_step.prefix.value());
  return d.value();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Run run(args);
  std::printf("workload %s: %zu sensors, field %.2f x %.2f, seed %" PRIu64
              ", trace %d\n",
              run.w.name.data(), run.sensors, run.side, run.side, args.seed,
              args.trace ? 1 : 0);
  const uint64_t digest = args.trace ? run.Traced() : run.EndToEnd();
  std::printf("digest: %016" PRIx64 "\n", digest);

  bool correct = run.correct && run.checker.failed() == 0;
  for (const Metric& m : run.metrics) correct = correct && std::isfinite(m.value);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.checker.attempted());
  json += ", \"failed\": " + std::to_string(run.checker.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
