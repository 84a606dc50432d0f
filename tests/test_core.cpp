#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/remap_d.hpp"
#include "core/remap_policy.hpp"

namespace remapd {
namespace {

/// Fixture: a 4x4-tile RCS (128 crossbars of 32x32), one layer of 64x64
/// weights -> 4 forward + 4 backward tasks on crossbars 0..7.
class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : rng_(7) {
    RcsConfig cfg;
    cfg.tiles_x = cfg.tiles_y = 4;
    cfg.xbar_rows = cfg.xbar_cols = 32;
    rcs_ = std::make_unique<Rcs>(cfg);
    mapper_ = std::make_unique<WeightMapper>(*rcs_);
    mapper_->map_layers({{64, 64}});
    density_.reset(rcs_->total_crossbars());
    weights_ = Tensor::randn(Shape{64, 64}, rng_);
    importance_ = Tensor::zeros(Shape{64, 64});
  }

  PolicyContext context() {
    PolicyContext ctx;
    ctx.mapper = mapper_.get();
    ctx.density = &density_;
    ctx.rng = &rng_;
    ctx.layers.resize(1);
    ctx.layers[0].initial_weights = &weights_;
    ctx.layers[0].grad_importance = &importance_;
    return ctx;
  }

  void set_density(XbarId x, double d) {
    auto all = density_.all();
    all[x] = d;
    density_.update(std::move(all));
  }

  Rng rng_;
  std::unique_ptr<Rcs> rcs_;
  std::unique_ptr<WeightMapper> mapper_;
  FaultDensityMap density_;
  Tensor weights_, importance_;
};

// ------------------------------------------------------- FaultDensityMap

TEST(FaultDensityMap, UpdateAndQueries) {
  FaultDensityMap map(4);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.surveys(), 0u);
  map.update({0.1, 0.0, 0.3, 0.2});
  EXPECT_EQ(map.surveys(), 1u);
  EXPECT_DOUBLE_EQ(map.density(2), 0.3);
  EXPECT_DOUBLE_EQ(map.mean(), 0.15);
  EXPECT_DOUBLE_EQ(map.max(), 0.3);
  EXPECT_EQ(map.above(0.15), (std::vector<std::size_t>{2, 3}));
  EXPECT_THROW(map.update({0.1}), std::invalid_argument);
}

TEST(FaultDensityMap, ResetRedimensions) {
  FaultDensityMap map;
  map.reset(3);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_DOUBLE_EQ(map.mean(), 0.0);
}

TEST(FaultDensityMap, ErrorVsTruthExactStats) {
  FaultDensityMap map(4);
  map.update({0.10, 0.20, 0.05, 0.00});
  // Signed errors vs truth: +0.02, -0.02, +0.05, 0.00.
  const DensityErrorStats s = map.error_vs({0.08, 0.22, 0.00, 0.00});
  EXPECT_NEAR(s.mean_abs, (0.02 + 0.02 + 0.05 + 0.0) / 4.0, 1e-12);
  EXPECT_NEAR(s.max_abs, 0.05, 1e-12);
  EXPECT_NEAR(s.mean_signed, (0.02 - 0.02 + 0.05 + 0.0) / 4.0, 1e-12);
}

TEST(FaultDensityMap, ErrorVsPerfectEstimateIsZero) {
  FaultDensityMap map(3);
  map.update({0.1, 0.2, 0.3});
  const DensityErrorStats s = map.error_vs({0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(s.mean_abs, 0.0);
  EXPECT_DOUBLE_EQ(s.max_abs, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_signed, 0.0);
}

TEST(FaultDensityMap, ErrorVsSizeMismatchThrows) {
  FaultDensityMap map(4);
  EXPECT_THROW(static_cast<void>(map.error_vs({0.1, 0.2})),
               std::invalid_argument);
}

// ------------------------------------------------------------ criticality

TEST(TaskCriticality, BackwardIsCritical) {
  EXPECT_TRUE(is_critical(Phase::kBackward));
  EXPECT_FALSE(is_critical(Phase::kForward));
  EXPECT_TRUE(can_receive(Phase::kForward));
  EXPECT_FALSE(can_receive(Phase::kBackward));
}

// ----------------------------------------------------------------- RemapD

TEST_F(PolicyTest, RemapDMovesCriticalTaskOffFaultyCrossbar) {
  // Backward tasks are on crossbars 4..7. Make crossbar 4 hot.
  const TaskId bwd_task = mapper_->task_on(4);
  ASSERT_EQ(mapper_->task(bwd_task).phase, Phase::kBackward);
  set_density(4, 0.01);

  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  ASSERT_EQ(policy.last_events().size(), 1u);
  EXPECT_EQ(policy.last_events()[0].sender_xbar, 4u);
  EXPECT_NE(mapper_->xbar_of(bwd_task), 4u);
  // The receiver has lower estimated density than the sender had.
  EXPECT_LT(density_.density(mapper_->xbar_of(bwd_task)), 0.01);
}

TEST_F(PolicyTest, RemapDIgnoresModeratelyFaultyForwardTasks) {
  // A forward task's crossbar above the *backward* threshold but below the
  // forward-rescue threshold: no request (forward is fault-tolerant).
  set_density(0, 0.005);
  ASSERT_EQ(mapper_->task(mapper_->task_on(0)).phase, Phase::kForward);
  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  EXPECT_TRUE(policy.last_events().empty());
}

TEST_F(PolicyTest, RemapDRescuesForwardTaskFromQuarantinedCrossbar) {
  // Beyond the rescue threshold, even a forward task evacuates — but only
  // to an *idle* crossbar (nothing is displaced onto the hot array).
  const TaskId fwd_task = mapper_->task_on(0);
  set_density(0, 0.05);
  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  ASSERT_EQ(policy.last_events().size(), 1u);
  EXPECT_EQ(policy.last_events()[0].sender_xbar, 0u);
  const XbarId dest = policy.last_events()[0].receiver_xbar;
  EXPECT_EQ(mapper_->xbar_of(fwd_task), dest);
  EXPECT_EQ(mapper_->task_on(0), kNoTask);  // hot crossbar quarantined
  EXPECT_GE(dest, 8u);                      // previously-idle crossbar
}

TEST_F(PolicyTest, RemapDRescueDisabledByConfig) {
  set_density(0, 0.05);
  RemapDConfig cfg;
  cfg.forward_rescue_threshold = 0.0;
  RemapD policy(cfg);
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  EXPECT_TRUE(policy.last_events().empty());
}

TEST_F(PolicyTest, RemapDRespectsThreshold) {
  set_density(5, 0.0001);  // below the default 0.0005 threshold
  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  EXPECT_TRUE(policy.last_events().empty());

  set_density(5, 0.01);
  policy.on_epoch_end(ctx);
  EXPECT_EQ(policy.last_events().size(), 1u);
  EXPECT_EQ(policy.total_remaps(), 1u);
}

TEST_F(PolicyTest, RemapDNeverPicksBackwardReceiver) {
  // All crossbars moderately faulty except backward-task crossbar 6.
  auto all = density_.all();
  for (XbarId x = 0; x < all.size(); ++x) all[x] = 0.005;
  all[6] = 0.0;  // best crossbar, but holds a backward task
  all[10] = 0.001;  // idle crossbar, second best
  density_.update(std::move(all));

  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  for (const RemapEvent& e : policy.last_events())
    EXPECT_NE(e.receiver_xbar, 6u);
}

TEST_F(PolicyTest, RemapDPicksNearestReceiver) {
  // Sender on crossbar 4 (tile 0). Two candidate receivers: idle crossbar
  // on tile 1 (near) and idle crossbar on tile 15 (far), same density.
  const std::size_t per_tile = rcs_->config().xbars_per_tile();
  const XbarId near_x = per_tile;            // tile 1
  const XbarId far_x = 15 * per_tile;        // tile 15
  auto all = density_.all();
  // 0.01 everywhere else: not below the sender's density (so ineligible as
  // receivers) and not above the forward-rescue threshold.
  for (XbarId x = 0; x < all.size(); ++x)
    if (x != near_x && x != far_x) all[x] = 0.01;
  all[4] = 0.01;                              // the (only) sender
  all[5] = all[6] = all[7] = 0.0;             // other backward: no request
  all[near_x] = 0.0;
  all[far_x] = 0.0;
  density_.update(std::move(all));

  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  ASSERT_EQ(policy.last_events().size(), 1u);
  EXPECT_EQ(policy.last_events()[0].receiver_xbar, near_x);
}

TEST_F(PolicyTest, RemapDReceiverServesOneSenderPerRound) {
  set_density(4, 0.01);
  set_density(5, 0.01);
  // Only one eligible receiver.
  auto all = density_.all();
  for (XbarId x = 8; x < all.size(); ++x) all[x] = 0.02;
  all[20] = 0.0;
  density_.update(std::move(all));
  // Forward crossbars 0..3 share density 0 -> also receivers. Force them
  // ineligible to isolate the single-receiver behaviour.
  all = density_.all();
  for (XbarId x = 0; x < 4; ++x) all[x] = 0.02;
  density_.update(std::move(all));

  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  EXPECT_EQ(policy.last_events().size(), 1u);
  EXPECT_EQ(policy.last_events()[0].receiver_xbar, 20u);
}

TEST_F(PolicyTest, RemapDOnTrainingStartActsLikeEpochEnd) {
  set_density(4, 0.01);
  RemapD policy;
  PolicyContext ctx = context();
  policy.on_training_start(ctx);
  EXPECT_EQ(policy.last_events().size(), 1u);
}

// ---------------------------------------------------------- StaticMapping

TEST_F(PolicyTest, StaticPlacesBackwardTasksOnBestCrossbars) {
  // Give every crossbar a distinct density; the 4 backward tasks must end
  // on the 4 least-dense crossbars.
  auto all = density_.all();
  for (XbarId x = 0; x < all.size(); ++x)
    all[x] = 0.001 * static_cast<double>(all.size() - x);
  density_.update(std::move(all));

  StaticMapping policy;
  PolicyContext ctx = context();
  policy.on_training_start(ctx);

  std::vector<XbarId> backward = mapper_->xbars_of_phase(Phase::kBackward);
  std::sort(backward.begin(), backward.end());
  // Least dense crossbars are the highest ids under this ramp.
  const std::size_t total = rcs_->total_crossbars();
  EXPECT_EQ(backward,
            (std::vector<XbarId>{total - 4, total - 3, total - 2, total - 1}));
}

TEST_F(PolicyTest, StaticDoesNothingAtEpochEnd) {
  StaticMapping policy;
  PolicyContext ctx = context();
  policy.on_training_start(ctx);
  const std::size_t initial = policy.total_remaps();
  policy.on_epoch_end(ctx);
  EXPECT_EQ(policy.total_remaps(), initial);
}

// ----------------------------------------------------------- view filters

FaultView make_view(std::initializer_list<std::uint32_t> indices) {
  FaultView v;
  v.w_max = 1.0f;
  for (auto i : indices)
    v.clamps.push_back(WeightClamp{i, WeightClampKind::kPosStuck1});
  return v;
}

TEST_F(PolicyTest, RemapWsDropsClampsOnSignificantWeights) {
  // Mark weight 0 as the most significant, weight 1 as the least.
  weights_.fill(0.01f);
  weights_[0] = 10.0f;
  weights_[1] = 0.001f;

  RemapWS policy(0.05);
  PolicyContext ctx = context();
  FaultView filtered =
      policy.filter_view(0, Phase::kForward, make_view({0, 1}), ctx);
  ASSERT_EQ(filtered.clamps.size(), 1u);
  EXPECT_EQ(filtered.clamps[0].index, 1u);
  EXPECT_DOUBLE_EQ(policy.area_overhead_percent(), 5.0);
}

TEST_F(PolicyTest, RemapTopNUsesGradientImportance) {
  importance_.fill(0.0f);
  importance_[3] = 100.0f;  // hottest gradient
  RemapTopN policy(0.05);
  PolicyContext ctx = context();
  FaultView filtered =
      policy.filter_view(0, Phase::kBackward, make_view({3, 7}), ctx);
  ASSERT_EQ(filtered.clamps.size(), 1u);
  EXPECT_EQ(filtered.clamps[0].index, 7u);
  EXPECT_EQ(policy.name(), "remap-t-5%");
  EXPECT_DOUBLE_EQ(policy.area_overhead_percent(), 5.0);
}

TEST_F(PolicyTest, AnCodeCorrectsOnlyLowDensityCrossbars) {
  // Layer is 64x64 over 4 forward blocks: (0,0)-block on crossbar 0,
  // (0,32)-block on crossbar 1. Weight (0,0) -> index 0 lives on block 0;
  // weight (0,40) -> index 40 on block 1.
  set_density(0, 0.0);    // within capability -> corrected
  set_density(1, 0.05);   // beyond capability -> kept

  AnCodePolicy policy;
  PolicyContext ctx = context();
  FaultView filtered =
      policy.filter_view(0, Phase::kForward, make_view({0, 40}), ctx);
  ASSERT_EQ(filtered.clamps.size(), 1u);
  EXPECT_EQ(filtered.clamps[0].index, 40u);
  EXPECT_DOUBLE_EQ(policy.area_overhead_percent(), 6.3);
}

TEST_F(PolicyTest, NoProtectionKeepsEverything) {
  NoProtection policy;
  PolicyContext ctx = context();
  FaultView view = make_view({1, 2, 3});
  FaultView filtered = policy.filter_view(0, Phase::kForward, view, ctx);
  EXPECT_EQ(filtered.clamps.size(), 3u);
  EXPECT_DOUBLE_EQ(policy.area_overhead_percent(), 0.0);
}

// ----------------------------------------------------------------- factory

TEST(PolicyFactory, CreatesAllFigSixPolicies) {
  for (const char* name : {"remap-d", "static", "remap-ws", "remap-t-5",
                           "remap-t-10", "an-code", "none"}) {
    PolicyPtr p = make_policy(name);
    ASSERT_NE(p, nullptr) << name;
  }
  EXPECT_EQ(make_policy("remap-d")->name(), "remap-d");
  EXPECT_EQ(make_policy("remap-t-10")->name(), "remap-t-10%");
  EXPECT_THROW(make_policy("magic"), std::invalid_argument);
}

}  // namespace
}  // namespace remapd
