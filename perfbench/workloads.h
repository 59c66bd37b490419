// The benchmark workloads: scenario geometry, the Experiment builder
// configuration each one runs, and the per-workload limits the harness
// checks against. Everything here goes through the library's public API.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "api/experiment.h"
#include "util/check.h"
#include "util/hash.h"
#include "workload/dynamics.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace perfbench {

enum class WorkloadId { kSd100k, kTdStorm10k };

struct WorkloadSpec {
  WorkloadId id;
  std::string_view name;
  size_t sensors;       // full-size run
  size_t tiny_sensors;  // --tiny smoke run
  // Repetitions of MakeSyntheticScenario + Build() behind setup_s.
  int setup_reps;
  // The fixed-size job behind total_s, bytes_per_epoch and rel_rms:
  // Builder -> Run() with Warmup(warmup).Epochs(epochs), run once on the
  // last set-up. It is long, so its time averages over host noise, and it
  // carries the workload past its start-up transient before the timed loop.
  uint32_t warmup;
  uint32_t epochs;
  // Most closed-loop epochs a run takes (the dynamics horizon ends there).
  uint32_t max_epochs;
  // rel_rms above this means a broken engine, not accuracy drift.
  double rms_ceiling;
  // Size of the query set, whose members include a windowed query; 0 runs
  // a single aggregate.
  size_t num_queries;
  // The primary query's synopsis is a Sum (AddValue) bank, not Count keys.
  bool sum_synopsis;
};

// Why each workload exists is recorded in BENCHMARK.json. The storm's job
// runs past its epoch-70 loss switch and TD's delta expansion, whose pace
// varies by seed, so the timed loop sees its steady state.
inline constexpr WorkloadSpec kWorkloads[] = {
    {WorkloadId::kSd100k, "sd-100k", 100000, 3000, 3, 2, 3, 100000, 0.6, 0,
     false},
    {WorkloadId::kTdStorm10k, "td-storm-10k", 10000, 1000, 7, 100, 100, 1500,
     0.8, 2, true},
};

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// The paper's density (600 sensors per 20x20) at any sensor count.
inline double FieldSide(size_t sensors) {
  return 20.0 * std::sqrt(static_cast<double>(sensors) / 600.0);
}

inline constexpr double kRadioRange = 3.0;

/// Seed streams derived from the workload seed.
inline uint64_t NetworkSeedFor(uint64_t seed) { return td::Hash64(seed, 0x6e7); }
inline uint64_t ReadingSeedFor(uint64_t seed) { return td::Hash64(seed, 0x4ead); }
inline uint64_t DynamicsSeedFor(uint64_t seed) { return td::Hash64(seed, 0xd1a); }

/// td-storm-10k: each sensor's reading in [1, 100] changes once every 16
/// epochs, at an offset staggered by a hash of its id.
inline td::UintReadingFn DriftingReading(uint64_t seed) {
  const uint64_t rs = ReadingSeedFor(seed);
  return [rs](td::NodeId v, uint32_t e) -> uint64_t {
    const uint64_t h = td::Hash64(v, rs);
    return 1 + td::Hash64Pair(h, (e + h % 16) / 16) % 100;
  };
}

/// Selects the structure-of-arrays engine core where the library still
/// offers a choice of cores; once the object core is gone the SoA core is
/// the only one and this is a no-op.
inline void UseSoaCore(td::Experiment::Builder& b) {
#if __has_include("agg/tree_aggregator.h")
  b.Core(td::EngineCore::kSoa);
#else
  (void)b;
#endif
}

/// Whether `engine` replays unchanged nodes from an epoch-delta cache (the
/// SoA core); the object core recomputes every node every epoch.
inline bool HasReplayCache(const td::Engine& engine) {
#if __has_include("agg/tree_aggregator.h")
  return engine.core() == td::EngineCore::kSoa;
#else
  (void)engine;
  return true;
#endif
}

/// Configures `b` to run workload `w` over the external scenario `sc`.
/// `horizon` bounds the epochs the storm dynamics stream covers.
inline void Configure(td::Experiment::Builder& b, const WorkloadSpec& w,
                      const td::Scenario& sc, uint64_t seed,
                      uint32_t horizon) {
  using td::AggregateKind;
  b.Scenario(&sc).NetworkSeed(NetworkSeedFor(seed));
  switch (w.id) {
    case WorkloadId::kSd100k:
      b.Strategy(td::Strategy::kSynopsisDiffusion)
          .Aggregate(AggregateKind::kCount)
          .GlobalLossRate(0.2);
      UseSoaCore(b);
      break;
    case WorkloadId::kTdStorm10k: {
      const td::DynamicsPreset* storm = td::FindDynamicsPreset("storm");
      TD_CHECK(storm != nullptr);
      td::DynamicsConfig config = storm->config;
      config.seed = DynamicsSeedFor(seed);
      config.horizon = horizon;
      td::Query sum;
      sum.kind = AggregateKind::kSum;
      td::Query avg;
      avg.kind = AggregateKind::kAvg;
      avg.window = td::WindowSpec::Sliding(32);
      b.Strategy(td::Strategy::kTributaryDelta)
          .AddQuery(std::move(sum))
          .AddQuery(std::move(avg))
          .Reading(DriftingReading(seed))
          .GlobalLossRate(storm->base_loss)
          .Dynamics(config);
      UseSoaCore(b);
      break;
    }
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
