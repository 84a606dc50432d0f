#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/remap_d.hpp"
#include "json_prefix.hpp"
#include "obs/audit.hpp"
#include "obs/health.hpp"
#include "obs/jsonl.hpp"
#include "obs/noc_sampler.hpp"
#include "obs/report.hpp"

namespace remapd {
namespace {

using JsonObject = json::Value;

/// Same small rig as PolicyTest in test_core.cpp: 4x4 tiles of 32x32
/// crossbars, one 64x64 layer -> tasks on crossbars 0..7.
class ObsTest : public ::testing::Test {
 protected:
  ObsTest() : rng_(7) {
    RcsConfig cfg;
    cfg.tiles_x = cfg.tiles_y = 4;
    cfg.xbar_rows = cfg.xbar_cols = 32;
    rcs_ = std::make_unique<Rcs>(cfg);
    mapper_ = std::make_unique<WeightMapper>(*rcs_);
    mapper_->map_layers({{64, 64}});
    density_.reset(rcs_->total_crossbars());
    obs::Observatory::instance().reset();
  }

  ~ObsTest() override {
    obs::Observatory::instance().reset();
    obs::set_enabled(false);
  }

  PolicyContext context() {
    PolicyContext ctx;
    ctx.mapper = mapper_.get();
    ctx.density = &density_;
    ctx.rng = &rng_;
    ctx.audit = &audit_;
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
  obs::RemapAuditLog audit_;
};

// ----------------------------------------------------------- HealthTracker

TEST_F(ObsTest, HealthTrackerSamplesEveryCrossbar) {
  rcs_->crossbar(3).inject_random_faults(10, 0.9, rng_);
  density_.update(rcs_->fault_densities());  // perfect estimate
  std::vector<std::size_t> cum(rcs_->total_crossbars(), 0);
  cum[3] = 2;

  obs::HealthTracker tracker;
  tracker.sample_epoch(0, *rcs_, density_, *mapper_, cum);
  ASSERT_EQ(tracker.samples().size(), rcs_->total_crossbars());
  EXPECT_EQ(tracker.epochs_sampled(), 1u);

  const obs::HealthSample& s3 = tracker.samples()[3];
  EXPECT_EQ(s3.xbar, 3u);
  EXPECT_EQ(s3.sa0 + s3.sa1, 10u);
  EXPECT_GT(s3.sa0, s3.sa1);  // 9:1 split
  EXPECT_DOUBLE_EQ(s3.true_density,
                   10.0 / static_cast<double>(rcs_->crossbar(3).cell_count()));
  EXPECT_DOUBLE_EQ(s3.est_density, s3.true_density);
  EXPECT_EQ(s3.remaps, 2u);
  // Crossbar 3 holds a forward task of the 64x64 layer; crossbar 8 is idle.
  EXPECT_NE(s3.task, kNoTask);
  EXPECT_EQ(s3.phase, Phase::kForward);
  EXPECT_EQ(tracker.samples()[8].task, kNoTask);

  // Perfect estimate -> zero error stats for the epoch.
  ASSERT_EQ(tracker.epoch_stats().size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.epoch_stats()[0].est_error.mean_abs, 0.0);
  EXPECT_DOUBLE_EQ(tracker.epoch_stats()[0].max_true_density, s3.true_density);
}

TEST_F(ObsTest, HealthTrackerTopDegradedOrdersByTrueDensity) {
  rcs_->crossbar(2).inject_random_faults(20, 0.9, rng_);
  rcs_->crossbar(9).inject_random_faults(5, 0.9, rng_);
  density_.update(rcs_->fault_densities());

  obs::HealthTracker tracker;
  tracker.sample_epoch(0, *rcs_, density_, *mapper_, {});
  const auto top = tracker.top_degraded(0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].xbar, 2u);
  EXPECT_EQ(top[1].xbar, 9u);
}

// ------------------------------------------------------------ RemapAuditLog

TEST_F(ObsTest, RemapDAuditsChosenSwap) {
  set_density(4, 0.01);  // backward task, over threshold

  RemapD policy;
  PolicyContext ctx = context();
  ctx.epoch = 3;
  policy.on_epoch_end(ctx);
  ASSERT_EQ(policy.last_events().size(), 1u);
  ASSERT_EQ(audit_.size(), 1u);

  const obs::RemapAuditRecord& rec = audit_.records()[0];
  EXPECT_EQ(rec.epoch, 3u);
  EXPECT_EQ(rec.policy, "remap-d");
  EXPECT_FALSE(rec.at_training_start);
  EXPECT_EQ(rec.sender, 4u);
  EXPECT_EQ(rec.receiver, policy.last_events()[0].receiver_xbar);
  EXPECT_EQ(rec.reason, "density>threshold");
  EXPECT_DOUBLE_EQ(rec.sender_density, 0.01);
  EXPECT_LT(rec.receiver_density, rec.sender_density);
  EXPECT_GT(rec.threshold, 0.0);
  // The chosen receiver was among the recorded candidates.
  EXPECT_NE(std::find(rec.candidates.begin(), rec.candidates.end(),
                      rec.receiver),
            rec.candidates.end());
  EXPECT_EQ(rec.hops, mapper_->hop_distance(rec.sender, rec.receiver));
}

TEST_F(ObsTest, RemapDAuditsSenderWithoutReceiver) {
  // Every other crossbar is denser than the sender: no eligible receiver.
  auto all = density_.all();
  for (XbarId x = 0; x < all.size(); ++x) all[x] = 0.02;
  all[4] = 0.01;
  density_.update(std::move(all));

  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  EXPECT_TRUE(policy.last_events().empty());
  ASSERT_GE(audit_.size(), 1u);
  bool found = false;
  for (const obs::RemapAuditRecord& rec : audit_.records())
    if (rec.sender == 4 && rec.receiver == obs::kNoReceiver &&
        rec.reason == "no-eligible-receiver")
      found = true;
  EXPECT_TRUE(found);
  EXPECT_EQ(audit_.swaps_in_epoch(0), 0u);
}

TEST_F(ObsTest, RemapDAuditsForwardRescue) {
  set_density(0, 0.05);  // forward task beyond the rescue threshold

  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  ASSERT_EQ(audit_.size(), 1u);
  EXPECT_EQ(audit_.records()[0].reason, "forward-rescue");
  EXPECT_EQ(audit_.records()[0].sender, 0u);
}

TEST_F(ObsTest, SwapsInEpochExcludesTrainingStartRound) {
  set_density(4, 0.01);
  RemapD policy;
  PolicyContext ctx = context();
  ctx.at_training_start = true;
  policy.on_training_start(ctx);  // audited as round="start"
  ASSERT_EQ(audit_.size(), 1u);
  EXPECT_TRUE(audit_.records()[0].at_training_start);
  EXPECT_EQ(audit_.swaps_in_epoch(0), 0u);

  set_density(5, 0.01);
  ctx.at_training_start = false;
  policy.on_epoch_end(ctx);
  EXPECT_EQ(audit_.swaps_in_epoch(0), 1u);
}

TEST_F(ObsTest, PoliciesSkipAuditWhenSinkIsNull) {
  set_density(4, 0.01);
  RemapD policy;
  PolicyContext ctx = context();
  ctx.audit = nullptr;  // observatory disabled
  policy.on_epoch_end(ctx);
  EXPECT_EQ(policy.last_events().size(), 1u);
  EXPECT_EQ(audit_.size(), 0u);
}

// ------------------------------------------------- NoC sampler + replay

TEST_F(ObsTest, SimulateRoundTrafficFromAuditRecords) {
  set_density(4, 0.01);
  RemapD policy;
  PolicyContext ctx = context();
  policy.on_epoch_end(ctx);
  ASSERT_EQ(audit_.size(), 1u);

  const noc::RemapTrafficResult res =
      obs::simulate_round_traffic(audit_.records(), 0, *rcs_);
  EXPECT_GT(res.total_cycles, 0u);
  EXPECT_GT(res.packets, 0u);
  // 4x4 tiles -> 2x2 c-mesh routers.
  EXPECT_EQ(res.router_flits.size(), 4u);
  std::uint64_t total = 0;
  for (std::uint64_t f : res.router_flits) total += f;
  EXPECT_GT(total, 0u);

  obs::NocUtilizationSampler sampler;
  sampler.record_round(2, res);
  sampler.record_round(2, res);  // same epoch accumulates
  ASSERT_EQ(sampler.epochs().size(), 1u);
  EXPECT_EQ(sampler.epochs()[0].epoch, 2u);
  EXPECT_EQ(sampler.cycles_in_epoch(2), 2 * res.total_cycles);
  EXPECT_EQ(sampler.epochs()[0].packets, 2 * res.packets);
  EXPECT_EQ(sampler.cycles_in_epoch(9), 0u);
}

TEST_F(ObsTest, SimulateRoundTrafficEmptySliceIsZero) {
  const noc::RemapTrafficResult res =
      obs::simulate_round_traffic(audit_.records(), 0, *rcs_);
  EXPECT_EQ(res.total_cycles, 0u);
  EXPECT_EQ(res.packets, 0u);
}

// ------------------------------------------------------------ JSONL parser

TEST(ObsJsonl, ParsesFlatObjects) {
  JsonObject obj;
  ASSERT_TRUE(obs::parse_jsonl_line(
      R"({"type":"health","epoch":3,"est_density":0.0125,)"
      R"("candidates":[1,2,3],"phase":"forward","neg":-1})",
      &obj));
  EXPECT_EQ(obj.text("type", ""), "health");
  EXPECT_DOUBLE_EQ(obj.num("epoch", -1), 3.0);
  EXPECT_DOUBLE_EQ(obj.num("est_density", 0), 0.0125);
  EXPECT_DOUBLE_EQ(obj.num("neg", 0), -1.0);
  const JsonObject* cands = obj.find("candidates");
  ASSERT_TRUE(cands && cands->is(JsonObject::Kind::kArray));
  std::vector<double> nums;
  for (const JsonObject& c : cands->items) nums.push_back(c.number);
  EXPECT_EQ(nums, (std::vector<double>{1, 2, 3}));
  // Defaults for missing keys / wrong kinds.
  EXPECT_DOUBLE_EQ(obj.num("missing", 7.5), 7.5);
  EXPECT_EQ(obj.text("epoch", "d"), "d");
}

TEST(ObsJsonl, ParsesEscapesAndEmpty) {
  JsonObject obj;
  ASSERT_TRUE(obs::parse_jsonl_line(R"({"s":"a\"b\\c\nd","e":[]})", &obj));
  EXPECT_EQ(obj.text("s"), "a\"b\\c\nd");
  EXPECT_TRUE(obj.find("e")->items.empty());
  // The \u00XX escapes json::escape writes for control bytes decode back.
  ASSERT_TRUE(obs::parse_jsonl_line(R"({"s":"a\u0001b"})", &obj));
  EXPECT_EQ(obj.text("s"), std::string("a\x01") + "b");
  ASSERT_TRUE(obs::parse_jsonl_line("{}", &obj));
  EXPECT_TRUE(obj.members.empty());
}

TEST(ObsJsonl, RejectsMalformedLines) {
  JsonObject obj;
  std::string err;
  EXPECT_FALSE(obs::parse_jsonl_line("", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line("not json", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1)", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1} trailing)", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":{"nested":1}})", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":[1,]})", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":tru})", &obj, &err));
  // Valid JSON outside the flat-object contract.
  EXPECT_FALSE(obs::parse_jsonl_line("[1]", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":true})", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":[1,"x"]})", &obj, &err));
  // Not JSON numbers.
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":+1})", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":.5})", &obj, &err));
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1.})", &obj, &err));
  EXPECT_FALSE(err.empty());
}

// ----------------------------------------------- Observatory round-trip

TEST_F(ObsTest, ObservatoryJsonlRoundTrip) {
  // Drive two epochs of remap-d through the observatory, then re-read the
  // stream with the same parser remapd_report uses and check that the
  // per-epoch swap and fault counts survive the round-trip exactly.
  obs::Observatory& ob = obs::Observatory::instance();
  obs::RunInfo info;
  info.model = "test-model";
  info.policy = "remap-d";
  info.dataset = "synthetic \"quoted\"";
  info.seed = 11;
  info.epochs = 2;
  info.crossbars = rcs_->total_crossbars();
  info.tiles_x = info.tiles_y = 4;
  info.xbar_rows = info.xbar_cols = 32;
  ob.begin_run(info);

  RemapD policy;
  const std::size_t expected_swaps[2] = {1, 2};
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    set_density(4 + epoch, 0.01);
    if (epoch == 1) set_density(6, 0.012);
    PolicyContext ctx = context();
    ctx.audit = &ob.audit();
    ctx.epoch = epoch;
    policy.on_epoch_end(ctx);
    ASSERT_EQ(policy.last_events().size(), expected_swaps[epoch]);

    obs::EpochObs eo;
    eo.epoch = epoch;
    eo.remaps = policy.last_events().size();
    eo.new_faults = 5 + epoch;
    eo.total_faults = 100 + epoch;
    eo.train_loss = 1.5f;
    eo.test_accuracy = 0.25;
    ob.noc().record_round(
        epoch, obs::simulate_round_traffic(ob.audit().records(), 0, *rcs_));
    ob.sample_epoch(eo, *rcs_, density_, *mapper_);
  }

  // Every line must parse, and no strict prefix of one may; regroup by type.
  const std::string stream = ob.jsonl();
  std::size_t runs = 0, epochs = 0, healths = 0, remaps = 0, nocs = 0;
  std::vector<JsonObject> epoch_lines;
  std::istringstream is(stream);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(obs::parse_jsonl_line(line, &obj, &err)) << err << ": " << line;
    const std::string type = obj.text("type", "");
    expect_only_whole_parses(type, line);
    if (type == "run") {
      ++runs;
      EXPECT_EQ(obj.text("dataset", ""), "synthetic \"quoted\"");
      EXPECT_DOUBLE_EQ(obj.num("seed", 0), 11.0);
    } else if (type == "epoch") {
      ++epochs;
      epoch_lines.push_back(std::move(obj));
    } else if (type == "health") {
      ++healths;
    } else if (type == "remap") {
      ++remaps;
    } else if (type == "noc") {
      ++nocs;
    }
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_GT(nocs, 0u);
  ASSERT_EQ(epochs, 2u);
  EXPECT_EQ(healths, 2 * rcs_->total_crossbars());
  EXPECT_EQ(remaps, ob.audit().size());

  for (std::size_t e = 0; e < 2; ++e) {
    EXPECT_DOUBLE_EQ(epoch_lines[e].num("epoch", -1),
                     static_cast<double>(e));
    EXPECT_DOUBLE_EQ(epoch_lines[e].num("remaps", -1),
                     static_cast<double>(expected_swaps[e]));
    EXPECT_DOUBLE_EQ(epoch_lines[e].num("new_faults", -1),
                     static_cast<double>(5 + e));
    EXPECT_DOUBLE_EQ(epoch_lines[e].num("total_faults", -1),
                     static_cast<double>(100 + e));
    // The audit log agrees with the trainer's per-epoch counts.
    EXPECT_EQ(ob.audit().swaps_in_epoch(e), expected_swaps[e]);
  }

  // The summary mentions the run and its churn.
  const std::string summary = ob.summary();
  EXPECT_NE(summary.find("test-model"), std::string::npos);
  EXPECT_NE(summary.find("remap churn"), std::string::npos);
}

TEST_F(ObsTest, ObservatorySealsRunsSequentially) {
  obs::Observatory& ob = obs::Observatory::instance();
  obs::RunInfo info;
  info.model = "first";
  info.crossbars = rcs_->total_crossbars();
  ob.begin_run(info);
  obs::EpochObs eo;
  ob.sample_epoch(eo, *rcs_, density_, *mapper_);

  info.model = "second";
  ob.begin_run(info);  // seals "first"
  ob.sample_epoch(eo, *rcs_, density_, *mapper_);

  std::size_t runs = 0;
  std::istringstream is(ob.jsonl());
  std::string line;
  std::vector<std::string> models;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JsonObject obj;
    ASSERT_TRUE(obs::parse_jsonl_line(line, &obj));
    if (obj.text("type", "") == "run") {
      ++runs;
      models.push_back(obj.text("model", ""));
    }
  }
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(models, (std::vector<std::string>{"first", "second"}));
}

TEST(ObsGate, DisabledByDefault) {
  EXPECT_FALSE(obs::enabled());
  obs::set_enabled(true);
  EXPECT_TRUE(obs::enabled());
  obs::set_enabled(false);
}

}  // namespace
}  // namespace remapd
