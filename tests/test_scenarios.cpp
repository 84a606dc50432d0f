// Scenario-diversity layer: transient upsets + detect-and-refresh, the
// IR-drop interconnect model, and the fault-model / policy catalogs.
//
// The trainer-level tests pin the two properties ISSUE 9 gates on every
// new scenario: bitwise 1-vs-4-thread determinism and bitwise checkpoint
// resume. The unit tests pin the physics the head-to-heads rely on
// (position-dependent IR gain, Poisson upset determinism, refresh
// semantics) at a scale where a regression is attributable to one module.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analog/column_current.hpp"
#include "ckpt/snapshot.hpp"
#include "core/remap_policy.hpp"
#include "nn/fault_view.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"
#include "xbar/ir_drop.hpp"
#include "xbar/rcs.hpp"
#include "xbar/transient.hpp"

namespace remapd {
namespace {

class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "remapd_scen_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------- IR drop

TEST(IrDrop, DisabledAndAlternatingGainsAreExactlyOne) {
  IrDropConfig off;  // wire_ohms_per_cell = 0
  IrDropConfig on;
  on.wire_ohms_per_cell = 40.0;
  for (std::size_t r : {std::size_t{0}, std::size_t{63}, std::size_t{127}})
    for (std::size_t c : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
      // Model off: unity regardless of scheme.
      EXPECT_EQ(ir_cell_gain(r, c, 128, 64, off, LineScheme::kSingleSided),
                1.0);
      // Alternating drive equalizes every path to the calibration mean, so
      // the calibrated gain is identically (not approximately) one.
      EXPECT_EQ(ir_cell_gain(r, c, 128, 64, on, LineScheme::kAlternating),
                1.0);
    }
}

TEST(IrDrop, SingleSidedGainSpreadsMonotonicallyAroundOne) {
  IrDropConfig ir;
  ir.wire_ohms_per_cell = 40.0;
  const std::size_t rows = 128, cols = 128;
  // Driven corner reads hot, far corner reads cold.
  EXPECT_GT(ir_cell_gain(0, 0, rows, cols, ir, LineScheme::kSingleSided),
            1.0);
  EXPECT_LT(ir_cell_gain(rows - 1, cols - 1, rows, cols, ir,
                         LineScheme::kSingleSided),
            1.0);
  // Monotone decay with distance from the periphery, along both axes.
  double prev = ir_cell_gain(0, 5, rows, cols, ir, LineScheme::kSingleSided);
  for (std::size_t r = 1; r < rows; ++r) {
    const double g =
        ir_cell_gain(r, 5, rows, cols, ir, LineScheme::kSingleSided);
    EXPECT_LT(g, prev) << "row " << r;
    prev = g;
  }
  prev = ir_cell_gain(5, 0, rows, cols, ir, LineScheme::kSingleSided);
  for (std::size_t c = 1; c < cols; ++c) {
    const double g =
        ir_cell_gain(5, c, rows, cols, ir, LineScheme::kSingleSided);
    EXPECT_LT(g, prev) << "col " << c;
    prev = g;
  }
}

TEST(IrDrop, ColumnCurrentIsPositionSensitive) {
  // The same SA1 fault (same sampled stuck resistance, by seeding two
  // identical RNGs) placed near vs far from the periphery must read
  // differently once the lines are resistive — and identically when the
  // model is off (the IR overload reduces to the ideal one).
  Crossbar near(32, 32), far(32, 32);
  Rng rn(5), rf(5);
  ASSERT_TRUE(near.inject_fault(0, 3, CellFault::kStuckAt1, rn));
  ASSERT_TRUE(far.inject_fault(31, 3, CellFault::kStuckAt1, rf));

  IrDropConfig off;
  EXPECT_DOUBLE_EQ(
      column_current(near, 3, TestPattern::kAllZero, off),
      column_current(near, 3, TestPattern::kAllZero, off,
                     LineScheme::kSingleSided));
  // Same fault, different row: with ideal wires the only difference is the
  // float summation order, so the currents agree to rounding.
  const double i_near_off =
      column_current(near, 3, TestPattern::kAllZero, off,
                     LineScheme::kSingleSided);
  const double i_far_off = column_current(
      far, 3, TestPattern::kAllZero, off, LineScheme::kSingleSided);
  EXPECT_NEAR(i_near_off, i_far_off, 1e-12 * i_near_off);

  IrDropConfig ir;
  ir.wire_ohms_per_cell = 50.0;
  // The low-resistance SA1 cell dominates the kAllZero column current;
  // more wire in series with it means less current at the sense amp.
  EXPECT_GT(column_current(near, 3, TestPattern::kAllZero, ir,
                           LineScheme::kSingleSided),
            column_current(far, 3, TestPattern::kAllZero, ir,
                           LineScheme::kSingleSided));
}

// ---------------------------------------------------------- fault view

TEST(FaultViewGain, AppliesGainThenClamps) {
  FaultView view;
  view.mode = MappingMode::kSingleArrayBias;
  view.w_max = 1.0f;
  view.gain = {0.5f, 1.0f, 2.0f};
  view.clamps = {{1, WeightClampKind::kPosStuck1},
                 {2, WeightClampKind::kZeroed}};
  const float w[3] = {0.8f, -0.3f, 0.4f};
  float out[3] = {};
  view.apply(w, out, 3);
  EXPECT_EQ(out[0], 0.8f * 0.5f);       // healthy: gain only
  EXPECT_EQ(out[1], 1.0f);              // SA1 -> +w_max, through gain 1
  EXPECT_EQ(out[2], 0.0f);              // severed connection reads zero
}

TEST(FaultViewGain, WrongGainLengthThrows) {
  FaultView view;
  view.gain = {1.0f, 1.0f};
  const float w[3] = {1.0f, 2.0f, 3.0f};
  float out[3] = {};
  EXPECT_THROW(view.apply(w, out, 3), std::out_of_range);
}

// ---------------------------------------------------- transient upsets

RcsConfig small_rcs_config() {
  RcsConfig rc;
  rc.tiles_x = 1;
  rc.tiles_y = 1;
  rc.imas_per_tile = 1;
  rc.xbars_per_ima = 4;
  rc.xbar_rows = 32;
  rc.xbar_cols = 32;
  return rc;
}

void expect_same_upsets(const TransientFaultModel& a,
                        const TransientFaultModel& b, const Rcs& rcs) {
  ASSERT_EQ(a.total_upsets(), b.total_upsets());
  for (XbarId x = 0; x < rcs.total_crossbars(); ++x) {
    const auto& ua = a.upsets_of(x);
    const auto& ub = b.upsets_of(x);
    ASSERT_EQ(ua.size(), ub.size()) << "xbar " << x;
    for (std::size_t i = 0; i < ua.size(); ++i) {
      EXPECT_EQ(ua[i].cell, ub[i].cell) << "xbar " << x;
      EXPECT_EQ(ua[i].toward_on, ub[i].toward_on) << "xbar " << x;
      EXPECT_EQ(ua[i].half, ub[i].half) << "xbar " << x;
    }
  }
}

TEST(Transient, UpsetScheduleIsThreadCountInvariant) {
  Rcs rcs(small_rcs_config());
  TransientScenario sc;
  sc.enabled = true;
  sc.upset_rate = 0.01;
  Rng ra(99), rb(99);
  TransientFaultModel a(sc, ra), b(sc, rb);
  {
    ThreadGuard g(1);
    for (int i = 0; i < 3; ++i) a.step_epoch(rcs);
  }
  {
    ThreadGuard g(4);
    for (int i = 0; i < 3; ++i) b.step_epoch(rcs);
  }
  EXPECT_GT(a.total_upsets(), 0u);
  expect_same_upsets(a, b, rcs);
}

TEST(Transient, SnapshotRoundTripResumesSchedule) {
  Rcs rcs(small_rcs_config());
  TransientScenario sc;
  sc.enabled = true;
  sc.upset_rate = 0.01;
  Rng ra(7);
  TransientFaultModel a(sc, ra);
  a.step_epoch(rcs);
  a.step_epoch(rcs);

  ckpt::ByteWriter w;
  a.save_state(w);
  Rng rb(424242);  // deliberately different; load_state must overwrite
  TransientFaultModel b(sc, rb);
  ckpt::ByteReader r(w.bytes().data(), w.bytes().size());
  b.load_state(r);
  EXPECT_EQ(a.rounds(), b.rounds());
  expect_same_upsets(a, b, rcs);

  // The restored model must draw the SAME future arrivals: continue both
  // and demand identical upset sets, not merely identical counts.
  a.step_epoch(rcs);
  b.step_epoch(rcs);
  EXPECT_GT(a.total_upsets(), 0u);
  expect_same_upsets(a, b, rcs);
}

TEST(Transient, ClearCrossbarRefreshesEveryLiveUpset) {
  Rcs rcs(small_rcs_config());
  TransientScenario sc;
  sc.enabled = true;
  sc.upset_rate = 0.02;
  Rng rng(11);
  TransientFaultModel m(sc, rng);
  for (int i = 0; i < 3 && m.total_upsets() == 0; ++i) m.step_epoch(rcs);
  ASSERT_GT(m.total_upsets(), 0u);
  XbarId victim = 0;
  for (XbarId x = 0; x < rcs.total_crossbars(); ++x)
    if (!m.upsets_of(x).empty()) victim = x;
  const std::size_t before = m.upsets_of(victim).size();
  const std::size_t total_before = m.total_upsets();
  EXPECT_EQ(m.clear_crossbar(victim), before);
  EXPECT_TRUE(m.upsets_of(victim).empty());
  EXPECT_EQ(m.total_upsets(), total_before - before);
  // Idempotent: a second verify-and-rewrite finds nothing to fix.
  EXPECT_EQ(m.clear_crossbar(victim), 0u);
}

// ----------------------------------------------------------- catalogs

TEST(ScenarioCatalog, FaultModelRegistryNamesAllApply) {
  const auto& reg = fault_model_registry();
  ASSERT_FALSE(reg.empty());
  bool has_transient = false, has_ir = false, has_saf = false;
  for (const FaultModelSpec& spec : reg) {
    has_transient = has_transient || spec.name == "transient";
    has_ir = has_ir || spec.name == "ir-drop";
    has_saf = has_saf || spec.name == "saf";
    TrainerConfig cfg;
    cfg.epochs = 4;
    EXPECT_NO_THROW(apply_fault_model(cfg, spec.name)) << spec.name;
  }
  EXPECT_TRUE(has_transient);
  EXPECT_TRUE(has_ir);
  EXPECT_TRUE(has_saf);
}

TEST(ScenarioCatalog, PresetsSetTheFieldsTheyNameAndNoOthers) {
  TrainerConfig cfg;
  apply_fault_model(cfg, "transient");
  EXPECT_TRUE(cfg.transients.enabled);
  EXPECT_FALSE(cfg.ir_drop.enabled());

  TrainerConfig cfg2;
  apply_fault_model(cfg2, "ir-drop");
  EXPECT_TRUE(cfg2.ir_drop.enabled());
  EXPECT_FALSE(cfg2.transients.enabled);

  TrainerConfig cfg3;
  cfg3.transients.enabled = true;
  cfg3.ir_drop.wire_ohms_per_cell = 40.0;
  apply_fault_model(cfg3, "ideal");
  EXPECT_FALSE(cfg3.transients.enabled);
  EXPECT_FALSE(cfg3.ir_drop.enabled());
}

TEST(ScenarioCatalog, UnknownFaultModelIsRejectedNamingTheFlag) {
  TrainerConfig cfg;
  try {
    apply_fault_model(cfg, "bogus");
    FAIL() << "unknown fault model accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--fault-model"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
  }
}

TEST(ScenarioCatalog, PolicyRegistryNamesRoundTripThroughFactory) {
  const auto& reg = policy_registry();
  ASSERT_FALSE(reg.empty());
  bool has_refresh = false, has_xchangr = false, has_drop = false;
  for (const PolicySpec& spec : reg) {
    has_refresh = has_refresh || spec.name == "refresh";
    has_xchangr = has_xchangr || spec.name == "xchangr";
    has_drop = has_drop || spec.name == "drop-connect";
    PolicyPtr p = make_policy(spec.name);
    ASSERT_NE(p, nullptr) << spec.name;
    // The remap-t policies display a "%" suffix ("remap-t-5%") on top of
    // their factory key; every name() must at least start with the key.
    EXPECT_EQ(p->name().rfind(spec.name, 0), 0u)
        << p->name() << " vs " << spec.name;
  }
  EXPECT_TRUE(has_refresh);
  EXPECT_TRUE(has_xchangr);
  EXPECT_TRUE(has_drop);
}

// ---------------------------------------------------- experiment spec

std::string error_of(const ExperimentSpec& spec) {
  try {
    (void)make_trainer_config(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Every preset x every fault edit: under a preset with stuck-at faults
/// the edit lands in the built config; under one without, the builder
/// refuses it naming both the edit and the preset.
TEST(ExperimentSpec, EveryFaultEditChangesTheConfigOrIsRefused) {
  struct Edit {
    std::string flag;
    void (*apply)(ExperimentSpec&);
    bool (*landed)(const FaultScenario&);
  };
  const Edit edits[] = {
      {"--pre-high", [](ExperimentSpec& s) { s.pre_high = 0.02; },
       [](const FaultScenario& f) {
         return f.high_density_hi == 0.02 && f.high_density_lo == 0.02 * 0.4;
       }},
      {"--post-m", [](ExperimentSpec& s) { s.post_m = 0.03; },
       [](const FaultScenario& f) { return f.post_cell_fraction == 0.03; }},
      {"--post-n", [](ExperimentSpec& s) { s.post_n = 0.02; },
       // The paper's n, compressed to the run's 4 epochs.
       [](const FaultScenario& f) {
         return f.post_xbar_fraction == 0.02 * 50.0 / 4.0;
       }},
  };
  for (const FaultModelSpec& fm : fault_model_registry()) {
    const ExperimentSpec base{.epochs = 4, .fault_model = fm.name};
    const auto before = config_fingerprint(make_trainer_config(base));
    for (const Edit& e : edits) {
      ExperimentSpec spec = base;
      e.apply(spec);
      if (fm.saf) {
        const TrainerConfig cfg = make_trainer_config(spec);
        EXPECT_NE(config_fingerprint(cfg), before) << fm.name << e.flag;
        EXPECT_TRUE(e.landed(cfg.faults)) << fm.name << e.flag;
      } else {
        const std::string msg = error_of(spec);
        EXPECT_NE(msg.find(e.flag), std::string::npos) << msg;
        EXPECT_NE(msg.find("fault_model (--fault-model) is " + fm.name),
                  std::string::npos)
            << msg;
      }
    }
  }
}

/// --post-n compresses to (n x 50) / epochs capped at 1, in bench_fig7's
/// rounding order, including at epoch counts where that order shows.
TEST(ExperimentSpec, PostNIsCompressedToTheFinalEpochs) {
  for (std::size_t epochs : {1u, 3u, 7u, 8u}) {
    for (double n : {0.001, 0.01, 0.02}) {
      const ExperimentSpec spec{.epochs = epochs, .post_n = n};
      EXPECT_EQ(make_trainer_config(spec).faults.post_xbar_fraction,
                std::min(1.0, n * 50.0 / static_cast<double>(epochs)))
          << epochs << " " << n;
    }
  }
}

/// No fault model means `saf`, compressed to the final epoch count — not
/// to the model's default 8.
TEST(ExperimentSpec, DefaultIsSafCompressedToTheFinalEpochs) {
  for (std::size_t epochs : {2u, 3u, 8u, 20u}) {
    TrainerConfig hand = recommended_config("squeezenet");
    hand.epochs = epochs;
    hand.faults = FaultScenario::paper_default_compressed(epochs);
    const ExperimentSpec spec{.model = "squeezenet", .epochs = epochs};
    EXPECT_EQ(config_fingerprint(make_trainer_config(spec)),
              config_fingerprint(hand))
        << epochs;
    ExperimentSpec saf = spec;
    saf.fault_model = "saf";
    EXPECT_EQ(config_fingerprint(make_trainer_config(saf)),
              config_fingerprint(hand))
        << epochs;
  }
}

/// `ideal` (which remapd_experiment's --ideal aliases) is the model's
/// config with no faults of any kind.
TEST(ExperimentSpec, IdealPresetIsTheFaultFreeConfig) {
  TrainerConfig hand = recommended_config("resnet12");
  hand.faults = FaultScenario::ideal();
  EXPECT_EQ(config_fingerprint(make_trainer_config({.fault_model = "ideal"})),
            config_fingerprint(hand));
}

TEST(ExperimentSpec, RefusalsNameTheFlag) {
  EXPECT_NE(error_of({.model = "bogus"}).find("model (--model): unknown name"),
            std::string::npos);
  EXPECT_NE(
      error_of({.policy = "bogus"}).find("policy (--policy): unknown name"),
      std::string::npos);
  EXPECT_NE(error_of({.fault_model = "bogus"}).find("--fault-model"),
            std::string::npos);
  ExperimentSpec int8_only;
  int8_only.quant.int8_gemm = true;
  EXPECT_NE(error_of(int8_only).find(
                "int8 (--int8) requires cell_bits (--cell-bits)"),
            std::string::npos);
  ExperimentSpec noise_only;
  noise_only.quant.program_noise_sigma = 0.5;
  EXPECT_NE(error_of(noise_only).find("quant_noise (--quant-noise) requires"),
            std::string::npos);
  ExperimentSpec zero_bits;
  zero_bits.quant.enabled = true;
  zero_bits.quant.cell_bits = 0;
  EXPECT_NE(error_of(zero_bits).find("cell_bits"), std::string::npos);
  EXPECT_EQ(error_of({}), "");
}

// ------------------------------------------------- trainer-level runs

/// Small-but-real training config for the transient scenario (same scale
/// as the checkpoint-resume tests in test_ckpt.cpp).
TrainerConfig transient_cfg(const std::string& policy) {
  TrainerConfig cfg;
  cfg.model = "vgg11";
  cfg.epochs = 3;
  cfg.batch_size = 16;
  cfg.data.train = 48;
  cfg.data.test = 32;
  cfg.data.image_size = 12;
  cfg.faults = FaultScenario::ideal();
  cfg.transients.enabled = true;
  cfg.transients.upset_rate = 0.01;
  cfg.policy = policy;
  return cfg;
}

TrainerConfig ir_drop_cfg() {
  TrainerConfig cfg = transient_cfg("none");
  cfg.transients = TransientScenario{};
  cfg.ir_drop.wire_ohms_per_cell = 400.0;
  return cfg;
}

void expect_same_history(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const EpochRecord& x = a.history[i];
    const EpochRecord& y = b.history[i];
    EXPECT_EQ(x.train_loss, y.train_loss) << "epoch " << i;
    EXPECT_EQ(x.train_accuracy, y.train_accuracy) << "epoch " << i;
    EXPECT_EQ(x.test_accuracy, y.test_accuracy) << "epoch " << i;
    EXPECT_EQ(x.remaps, y.remaps) << "epoch " << i;
    EXPECT_EQ(x.total_faults, y.total_faults) << "epoch " << i;
    EXPECT_EQ(x.new_upsets, y.new_upsets) << "epoch " << i;
    EXPECT_EQ(x.live_upsets, y.live_upsets) << "epoch " << i;
    EXPECT_EQ(x.refreshed_cells, y.refreshed_cells) << "epoch " << i;
    EXPECT_EQ(x.refresh_cycles, y.refresh_cycles) << "epoch " << i;
  }
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
}

TEST(ScenarioTrainer, RefreshPolicyDetectsAndRepairsUpsets) {
  ThreadGuard g(4);
  const TrainResult none = train_with_faults(transient_cfg("none"));
  const TrainResult refresh = train_with_faults(transient_cfg("refresh"));

  // Without a verify-and-rewrite pass upsets only accumulate.
  EXPECT_GT(none.last().live_upsets, 0u);
  EXPECT_EQ(none.last().refreshed_cells, 0u);
  EXPECT_EQ(none.last().refresh_cycles, 0u);

  // The refresh policy repairs cells and charges cycles for doing so.
  std::size_t refreshed = 0;
  std::uint64_t cycles = 0;
  for (const EpochRecord& e : refresh.history) {
    refreshed += e.refreshed_cells;
    cycles += e.refresh_cycles;
  }
  EXPECT_GT(refreshed, 0u);
  EXPECT_GT(cycles, 0u);
  // Spare (unmapped) crossbars still accrue upsets the policy never needs
  // to touch, so the live count is lower, not necessarily zero.
  EXPECT_LT(refresh.last().live_upsets, none.last().live_upsets);
}

TEST(ScenarioTrainer, TransientRefreshIsThreadCountInvariant) {
  const TrainerConfig cfg = transient_cfg("refresh");
  TrainResult serial, parallel4;
  {
    ThreadGuard g(1);
    serial = train_with_faults(cfg);
  }
  {
    ThreadGuard g(4);
    parallel4 = train_with_faults(cfg);
  }
  expect_same_history(serial, parallel4);
}

TEST(ScenarioTrainer, IrDropTrainingIsThreadCountInvariant) {
  const TrainerConfig cfg = ir_drop_cfg();
  TrainResult serial, parallel4;
  {
    ThreadGuard g(1);
    serial = train_with_faults(cfg);
  }
  {
    ThreadGuard g(4);
    parallel4 = train_with_faults(cfg);
  }
  expect_same_history(serial, parallel4);
}

TEST(ScenarioTrainer, TransientRefreshResumesBitwise) {
  ThreadGuard g(4);
  TrainerConfig cfg = transient_cfg("refresh");
  cfg.epochs = 4;

  // Leg A: uninterrupted.
  FaultAwareTrainer full(cfg);
  const TrainResult a = full.run();
  const std::string end_a = tmp_path("transient_end_a.ckpt");
  full.save_checkpoint(end_a);

  // Leg B: stop after 2 epochs, leaving a mid-run checkpoint.
  TrainerConfig part = cfg;
  part.checkpoint_every = 1;
  part.checkpoint_path = tmp_path("transient_mid.ckpt");
  part.stop_after_epochs = 2;
  train_with_faults(part);

  // Leg C: resume and finish; the upset schedule, live-upset set and
  // refresh accounting must all continue exactly where leg B stopped.
  TrainerConfig rest = cfg;
  rest.resume_from = part.checkpoint_path;
  FaultAwareTrainer resumed(rest);
  const TrainResult b = resumed.run();
  const std::string end_b = tmp_path("transient_end_b.ckpt");
  resumed.save_checkpoint(end_b);

  expect_same_history(a, b);
  EXPECT_EQ(slurp(end_a), slurp(end_b));

  std::remove(part.checkpoint_path.c_str());
  std::remove(end_a.c_str());
  std::remove(end_b.c_str());
}

}  // namespace
}  // namespace remapd
