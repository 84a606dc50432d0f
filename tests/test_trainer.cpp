#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "obs/jsonl.hpp"
#include "obs/report.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"

namespace remapd {
namespace {

/// Tiny configuration so each integration run takes ~a second.
TrainerConfig tiny(const std::string& model = "vgg11") {
  TrainerConfig cfg;
  cfg.model = model;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.data.train = 48;
  cfg.data.test = 32;
  cfg.data.image_size = 12;
  return cfg;
}

TEST(Trainer, IdealRunProducesHistory) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::ideal();
  const TrainResult r = train_with_faults(cfg);
  EXPECT_EQ(r.model, "vgg11");
  EXPECT_EQ(r.policy, "none");
  EXPECT_EQ(r.dataset, "cifar10-like");
  ASSERT_EQ(r.history.size(), 2u);
  for (const EpochRecord& e : r.history) {
    EXPECT_GE(e.test_accuracy, 0.0);
    EXPECT_LE(e.test_accuracy, 1.0);
    EXPECT_TRUE(std::isfinite(e.train_loss));
    EXPECT_EQ(e.total_faults, 0u);
  }
  EXPECT_EQ(r.final_test_accuracy, r.history.back().test_accuracy);
  EXPECT_EQ(r.total_remaps, 0u);
}

TEST(Trainer, LossDecreasesOnIdealHardware) {
  TrainerConfig cfg = tiny();
  cfg.epochs = 4;
  const TrainResult r = train_with_faults(cfg);
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
}

TEST(Trainer, DeterministicForSeed) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::paper_default();
  cfg.policy = "remap-d";
  const TrainResult a = train_with_faults(cfg);
  const TrainResult b = train_with_faults(cfg);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].test_accuracy, b.history[i].test_accuracy);
    EXPECT_EQ(a.history[i].total_faults, b.history[i].total_faults);
    EXPECT_EQ(a.history[i].remaps, b.history[i].remaps);
  }
}

TEST(Trainer, SeedChangesOutcome) {
  TrainerConfig a = tiny(), b = tiny();
  b.seed = a.seed + 1;
  a.faults = b.faults = FaultScenario::paper_default();
  const TrainResult ra = train_with_faults(a);
  const TrainResult rb = train_with_faults(b);
  EXPECT_NE(ra.history.back().total_faults, rb.history.back().total_faults);
}

TEST(Trainer, FaultScenarioInjectsAndAccumulates) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::paper_default();
  const TrainResult r = train_with_faults(cfg);
  EXPECT_GT(r.history.front().total_faults, 0u);
  // Post-deployment faults accumulate epoch over epoch.
  EXPECT_GE(r.history.back().total_faults, r.history.front().total_faults);
  EXPECT_GT(r.history.back().mean_density_est, 0.0);
}

TEST(Trainer, BistCyclesReportedWhenEnabled) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::paper_default();
  cfg.use_bist_estimates = true;
  const TrainResult r = train_with_faults(cfg);
  EXPECT_EQ(r.history.back().bist_cycles,
            2 * (cfg.xbar_size + 2));  // survey cost of one crossbar

  TrainerConfig truth = tiny();
  truth.faults = FaultScenario::paper_default();
  truth.use_bist_estimates = false;
  EXPECT_EQ(train_with_faults(truth).history.back().bist_cycles, 0u);
}

TEST(Trainer, RemapDPerformsRemapsUnderFaults) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::paper_default();
  cfg.policy = "remap-d";
  const TrainResult r = train_with_faults(cfg);
  EXPECT_GT(r.total_remaps, 0u);
  EXPECT_EQ(r.policy, "remap-d");
}

TEST(Trainer, PhaseTargetedInjectionHitsOnlyThatPhase) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::uniform(0.02);
  cfg.fault_target = PhaseFaultTarget::kForwardOnly;
  FaultAwareTrainer trainer(cfg);
  (void)trainer.run();

  const WeightMapper& mapper = trainer.mapper();
  const Rcs& rcs = trainer.rcs();
  std::size_t fwd_faults = 0, bwd_faults = 0;
  for (XbarId x : mapper.xbars_of_phase(Phase::kForward))
    fwd_faults += rcs.crossbar(x).fault_count();
  for (XbarId x : mapper.xbars_of_phase(Phase::kBackward))
    bwd_faults += rcs.crossbar(x).fault_count();
  EXPECT_GT(fwd_faults, 0u);
  EXPECT_EQ(bwd_faults, 0u);
}

TEST(Trainer, PolicyAreaOverheadPropagated) {
  TrainerConfig cfg = tiny();
  cfg.policy = "an-code";
  EXPECT_DOUBLE_EQ(train_with_faults(cfg).policy_area_overhead_percent, 6.3);
  cfg.policy = "remap-t-10";
  EXPECT_DOUBLE_EQ(train_with_faults(cfg).policy_area_overhead_percent, 10.0);
}

TEST(Trainer, RcsSizedForModel) {
  TrainerConfig cfg = tiny("resnet12");
  FaultAwareTrainer trainer(cfg);
  EXPECT_GE(trainer.rcs().total_crossbars(), trainer.mapper().num_tasks());
  EXPECT_GT(trainer.mapper().num_tasks(), 0u);
}

TEST(Trainer, RecommendedConfigKnowsTheZoo) {
  const TrainerConfig vgg = recommended_config("vgg19");
  EXPECT_EQ(vgg.model, "vgg19");
  EXPECT_LT(vgg.sgd.lr, recommended_config("resnet18").sgd.lr);
  EXPECT_EQ(recommended_config("resnet12").epochs, 8u);
}

// Every zoo model's recommended configuration must survive trainer
// construction (model build, RCS sizing, tiling, mapping) — a registry
// entry whose config cannot even construct is dead on arrival.
TEST(Trainer, RecommendedConfigConstructsForEveryZooModel) {
  for (const std::string& name : model_zoo()) {
    TrainerConfig cfg = recommended_config(name);
    // Shrink the dataset so construction stays fast; the mapping/RCS
    // geometry under test is independent of sample counts.
    cfg.data.train = 32;
    cfg.data.test = 16;
    EXPECT_NO_THROW({
      FaultAwareTrainer trainer(cfg);
      EXPECT_EQ(trainer.config().model, name);
      EXPECT_GE(trainer.rcs().total_crossbars(),
                trainer.mapper().num_tasks());
    }) << "recommended_config(" << name << ") failed to construct";
  }
}

TEST(Trainer, EnvOverridesApply) {
  const ExperimentSpec spec{.model = "vgg11", .train = 48, .test = 32};
  setenv("REMAPD_EPOCHS", "3", 1);
  setenv("REMAPD_TRAIN", "64", 1);
  setenv("REMAPD_TEST", "16", 1);
  const TrainerConfig scaled = make_bench_config(spec);
  unsetenv("REMAPD_EPOCHS");
  unsetenv("REMAPD_TRAIN");
  unsetenv("REMAPD_TEST");
  EXPECT_EQ(scaled.epochs, 3u);
  EXPECT_EQ(scaled.data.train, 64u);
  EXPECT_EQ(scaled.data.test, 16u);
  // ... and the preset compresses to the overridden epochs.
  EXPECT_EQ(scaled.faults.post_xbar_fraction,
            FaultScenario::paper_default_compressed(3).post_xbar_fraction);
  // Unset variables keep the spec's values (or the model's, for epochs).
  const TrainerConfig plain = make_bench_config(spec);
  EXPECT_EQ(plain.epochs, recommended_config("vgg11").epochs);
  EXPECT_EQ(plain.data.train, 48u);
  EXPECT_EQ(plain.data.test, 32u);
}

TEST(Trainer, UnknownModelOrPolicyThrows) {
  TrainerConfig cfg = tiny();
  cfg.model = "lenet";
  EXPECT_THROW(FaultAwareTrainer{cfg}, std::invalid_argument);
  TrainerConfig cfg2 = tiny();
  cfg2.policy = "hope";
  EXPECT_THROW(FaultAwareTrainer{cfg2}, std::invalid_argument);
}


TEST(Trainer, RecommendedConfigWidensFragileModels) {
  // VGG-19 and SqueezeNet get 1.5x width (see DESIGN.md calibration §6.10).
  EXPECT_EQ(recommended_config("vgg19").model_cfg.base_width, 12u);
  EXPECT_EQ(recommended_config("squeezenet").model_cfg.base_width, 12u);
  EXPECT_EQ(recommended_config("resnet18").model_cfg.base_width, 8u);
}

TEST(Trainer, RcsHasMinimumMeshSize) {
  // Even a tiny model runs on at least the 4x4-tile chip of Fig. 3.
  TrainerConfig cfg = tiny("squeezenet");
  FaultAwareTrainer trainer(cfg);
  EXPECT_GE(trainer.rcs().num_tiles(), 16u);
}

TEST(Trainer, MappingStaysBijectiveAfterRemapping) {
  TrainerConfig cfg = tiny("resnet12");
  cfg.epochs = 3;
  cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
  cfg.policy = "remap-d";
  FaultAwareTrainer trainer(cfg);
  const TrainResult r = trainer.run();
  EXPECT_GT(r.total_remaps, 0u);

  const WeightMapper& mapper = trainer.mapper();
  std::set<XbarId> used;
  for (TaskId t = 0; t < mapper.num_tasks(); ++t) {
    const XbarId x = mapper.xbar_of(t);
    EXPECT_TRUE(used.insert(x).second) << "crossbar " << x << " reused";
    EXPECT_EQ(mapper.task_on(x), t);
  }
  // Every crossbar not in `used` must be idle.
  for (XbarId x = 0; x < trainer.rcs().total_crossbars(); ++x) {
    if (!used.count(x)) {
      EXPECT_EQ(mapper.task_on(x), kNoTask);
    }
  }
}

TEST(Trainer, MechanisticEnduranceProducesWearFaults) {
  TrainerConfig cfg = tiny("vgg11");
  cfg.epochs = 3;
  cfg.faults = FaultScenario::ideal();
  cfg.faults.enable_post = true;
  cfg.faults.mechanistic_endurance = true;
  cfg.faults.endurance.characteristic_writes = 60.0;  // fast wear for test
  const TrainResult r = train_with_faults(cfg);
  EXPECT_GT(r.history.back().total_faults, 0u);
  // Wear grows with accumulated writes epoch over epoch.
  EXPECT_GE(r.history.back().total_faults, r.history.front().total_faults);
}
// The central integration property: backward-phase faults hurt training
// far more than the same density of forward-phase faults (Fig. 5), and
// Remap-D recovers most of the loss under the combined scenario (Fig. 6).
// These run a few epochs and are the slowest tests in the suite.

TEST(TrainerSlow, BackwardFaultsHurtMoreThanForward) {
  TrainerConfig base = tiny("resnet12");
  base.epochs = 5;
  base.data.train = 128;
  base.data.test = 64;
  base.data.image_size = 16;
  base.faults = FaultScenario::uniform(0.02);

  TrainerConfig fwd = base;
  fwd.fault_target = PhaseFaultTarget::kForwardOnly;
  TrainerConfig bwd = base;
  bwd.fault_target = PhaseFaultTarget::kBackwardOnly;

  const double acc_fwd = train_with_faults(fwd).final_test_accuracy;
  const double acc_bwd = train_with_faults(bwd).final_test_accuracy;
  EXPECT_GT(acc_fwd, acc_bwd + 0.15);
}

TEST(TrainerSlow, RemapDBeatsNoProtection) {
  TrainerConfig base = tiny("resnet12");
  base.epochs = 5;
  base.data.train = 128;
  base.data.test = 64;
  base.data.image_size = 16;
  base.faults = FaultScenario::paper_default_compressed(base.epochs);

  // A single fault realization is extremely noisy at this scale: the
  // unprotected run ranges from total collapse to near-clean accuracy
  // depending on where the faults land, so compare the mean over a few
  // seeds. The protection margin is dominated by the collapse cases that
  // Remap-D prevents (Fig. 6).
  double acc_none = 0.0, acc_remap = 0.0;
  const std::uint64_t seeds[] = {42, 43, 44};
  for (const std::uint64_t seed : seeds) {
    TrainerConfig none = base;
    none.policy = "none";
    none.seed = seed;
    TrainerConfig remap = base;
    remap.policy = "remap-d";
    remap.seed = seed;
    acc_none += train_with_faults(none).final_test_accuracy;
    acc_remap += train_with_faults(remap).final_test_accuracy;
  }
  EXPECT_GT(acc_remap, acc_none);
}

// Regression: last() on an empty history used to be UB (vector::back on an
// empty vector); it must throw instead.
TEST(Trainer, LastThrowsOnEmptyHistory) {
  TrainResult empty;
  EXPECT_THROW((void)empty.last(), std::out_of_range);
}

TEST(Trainer, LastReturnsFinalEpoch) {
  TrainerConfig cfg = tiny();
  const TrainResult r = train_with_faults(cfg);
  ASSERT_FALSE(r.history.empty());
  EXPECT_EQ(&r.last(), &r.history.back());
  EXPECT_EQ(r.last().epoch, cfg.epochs - 1);
}

TEST(Trainer, NewFaultsRecordedPerEpoch) {
  TrainerConfig cfg = tiny();
  cfg.faults = FaultScenario::paper_default();
  const TrainResult r = train_with_faults(cfg);
  std::size_t new_total = 0;
  for (const EpochRecord& e : r.history) new_total += e.new_faults;
  EXPECT_GT(new_total, 0u);
  // Exact accounting: the ground-truth total grows by precisely the newly
  // failed cells of the epochs after the first record.
  EXPECT_EQ(r.history.back().total_faults,
            r.history.front().total_faults + new_total -
                r.history.front().new_faults);

  TrainerConfig ideal = tiny();
  ideal.faults = FaultScenario::ideal();
  for (const EpochRecord& e : train_with_faults(ideal).history)
    EXPECT_EQ(e.new_faults, 0u);
}

template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(Trainer, ObservatoryRecordsEveryEpochWithoutChangingHistory) {
  // The health-observer branches of begin_training and each epoch's end
  // run only with the observatory on; they must observe, never steer.
  TrainerConfig cfg = tiny("resnet12");
  cfg.faults = FaultScenario::paper_default();
  cfg.policy = "remap-d";
  const TrainResult plain = train_with_faults(cfg);

  obs::Observatory& ob = obs::Observatory::instance();
  struct Disable {
    obs::Observatory& ob;
    ~Disable() {
      ob.reset();
      obs::set_enabled(false);
    }
  } disable{ob};
  ob.reset();
  obs::set_enabled(true);
  const TrainResult observed = train_with_faults(cfg);

  ASSERT_EQ(observed.history.size(), plain.history.size());
  for (std::size_t e = 0; e < plain.history.size(); ++e) {
    const EpochRecord& x = plain.history[e];
    const EpochRecord& y = observed.history[e];
    EXPECT_TRUE(same_bits(x.train_loss, y.train_loss)) << e;
    EXPECT_TRUE(same_bits(x.train_accuracy, y.train_accuracy)) << e;
    EXPECT_TRUE(same_bits(x.test_accuracy, y.test_accuracy)) << e;
    EXPECT_TRUE(same_bits(x.mean_density_est, y.mean_density_est)) << e;
    EXPECT_TRUE(same_bits(x.max_density_est, y.max_density_est)) << e;
    EXPECT_EQ(x.remaps, y.remaps) << e;
    EXPECT_EQ(x.total_faults, y.total_faults) << e;
    EXPECT_EQ(x.new_faults, y.new_faults) << e;
    EXPECT_EQ(x.bist_cycles, y.bist_cycles) << e;
  }
  EXPECT_TRUE(
      same_bits(plain.final_test_accuracy, observed.final_test_accuracy));
  EXPECT_EQ(plain.total_remaps, observed.total_remaps);

  // The stream re-reads through the JSONL reader, with one run line and
  // one epoch line per trained epoch carrying the trainer's counts.
  std::istringstream is(ob.jsonl());
  std::string line;
  std::size_t runs = 0;
  std::vector<json::Value> epochs;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    json::Value obj;
    std::string err;
    ASSERT_TRUE(obs::parse_jsonl_line(line, &obj, &err)) << err << ": "
                                                         << line;
    const std::string type = obj.text("type", "");
    if (type == "run") {
      ++runs;
      EXPECT_EQ(obj.text("model", ""), "resnet12");
      EXPECT_EQ(obj.text("policy", ""), "remap-d");
    } else if (type == "epoch") {
      epochs.push_back(std::move(obj));
    }
  }
  EXPECT_EQ(runs, 1u);
  ASSERT_EQ(epochs.size(), cfg.epochs);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const EpochRecord& rec = observed.history[e];
    EXPECT_EQ(epochs[e].num("epoch", -1), static_cast<double>(e));
    EXPECT_EQ(epochs[e].num("remaps", -1), static_cast<double>(rec.remaps));
    EXPECT_EQ(epochs[e].num("total_faults", -1),
              static_cast<double>(rec.total_faults));
  }
}

}  // namespace
}  // namespace remapd
