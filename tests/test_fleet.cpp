// Fleet subsystem: job-file parsing (strict, line+field errors), chip pool
// semantics, scheduler policies and admission control, per-job telemetry
// attribution, and the headline guarantee — a job live-migrated between
// identical chips mid-training produces *bitwise* the same training
// history as the same job run uninterrupted on one chip, at any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "fleet/chip.hpp"
#include "fleet/jobfile.hpp"
#include "fleet/migration.hpp"
#include "fleet/scheduler.hpp"
#include "json_prefix.hpp"
#include "telemetry/telemetry.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"

namespace remapd {
namespace fleet {
namespace {

class FleetThreadGuard {
 public:
  explicit FleetThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~FleetThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

/// The small fast job every fleet test schedules (a vgg11 at ckpt-test
/// scale finishes an epoch in ~100 ms).
JobSpec tiny_job(const std::string& name, std::uint64_t seed = 7,
                 std::size_t epochs = 4) {
  JobSpec j;
  j.name = name;
  j.model = "resnet12";
  j.policy = "remap-d";
  j.epochs = epochs;
  j.train = 48;
  j.test = 32;
  j.seed = seed;
  return j;
}

ChipSpec pristine_chip(const std::string& name = "chip") {
  ChipSpec c;
  c.name = name;
  return c;
}

void expect_bitwise_equal_history(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const EpochRecord& x = a.history[i];
    const EpochRecord& y = b.history[i];
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.train_loss, y.train_loss) << "epoch " << i;
    EXPECT_EQ(x.train_accuracy, y.train_accuracy) << "epoch " << i;
    EXPECT_EQ(x.test_accuracy, y.test_accuracy) << "epoch " << i;
    EXPECT_EQ(x.remaps, y.remaps) << "epoch " << i;
    EXPECT_EQ(x.total_faults, y.total_faults) << "epoch " << i;
    EXPECT_EQ(x.new_faults, y.new_faults) << "epoch " << i;
    EXPECT_EQ(x.mean_density_est, y.mean_density_est) << "epoch " << i;
  }
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
}

// ------------------------------------------------------------ job files

TEST(FleetJobfile, ParsesCsvWithReorderedColumns) {
  const std::string csv =
      "# fleet mix\n"
      "epochs,name,model,priority,seed\n"
      "4,alpha,resnet12,2,11\n"
      "2,beta,vgg11,-1,12\n";
  const std::vector<JobSpec> jobs = parse_jobs_csv(csv, "mix.csv");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "alpha");
  EXPECT_EQ(jobs[0].epochs, 4u);
  EXPECT_EQ(jobs[0].priority, 2);
  EXPECT_EQ(jobs[0].seed, 11u);
  EXPECT_EQ(jobs[1].model, "vgg11");
  EXPECT_EQ(jobs[1].priority, -1);
  // Unspecified columns keep spec defaults.
  EXPECT_EQ(jobs[1].policy, "remap-d");
}

TEST(FleetJobfile, ParsesJsonArray) {
  const std::string json =
      "[\n"
      "  {\"name\": \"a\", \"model\": \"resnet12\", \"epochs\": 3},\n"
      "  {\"name\": \"b\", \"policy\": \"none\", \"seed\": 99,\n"
      "   \"priority\": 5}\n"
      "]\n";
  const std::vector<JobSpec> jobs = parse_jobs_json(json, "mix.json");
  expect_only_whole_parses("job file", json);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].epochs, 3u);
  EXPECT_EQ(jobs[1].policy, "none");
  EXPECT_EQ(jobs[1].seed, 99u);
  EXPECT_EQ(jobs[1].priority, 5);
}

/// Malformed entries fail loudly, naming the line and the field.
TEST(FleetJobfile, RejectsBadValuesNamingLineAndField) {
  const std::string csv =
      "name,epochs\n"
      "ok,4\n"
      "bad,abc\n";
  try {
    (void)parse_jobs_csv(csv, "jobs.csv");
    FAIL() << "expected FleetError";
  } catch (const FleetError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("jobs.csv line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("epochs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("abc"), std::string::npos) << msg;
  }
}

TEST(FleetJobfile, RejectsUnknownColumnOnHeaderLine) {
  try {
    (void)parse_jobs_csv("name,epochz\nx,4\n", "jobs.csv");
    FAIL() << "expected FleetError";
  } catch (const FleetError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("jobs.csv line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("epochz"), std::string::npos) << msg;
  }
}

TEST(FleetJobfile, RejectsRaggedRowsZeroEpochsAndDuplicates) {
  EXPECT_THROW(parse_jobs_csv("name,epochs\na,4,9\n", "f"), FleetError);
  EXPECT_THROW(parse_jobs_csv("name,epochs\na,0\n", "f"), FleetError);
  EXPECT_THROW(parse_jobs_csv("name,epochs\na,4\na,2\n", "f"), FleetError);
  EXPECT_THROW(parse_jobs_csv("name,epochs\n", "f"), FleetError);
}

TEST(FleetJobfile, RejectsMalformedJson) {
  // Unknown key, with its line number.
  try {
    (void)parse_jobs_json("[\n {\"name\": \"a\",\n  \"epoch\": 3}\n]", "j");
    FAIL() << "expected FleetError";
  } catch (const FleetError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("j line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("epoch"), std::string::npos) << msg;
  }
  // Floats, trailing garbage, bare truncation.
  EXPECT_THROW(parse_jobs_json("[{\"name\":\"a\",\"epochs\":1.5}]", "j"),
               FleetError);
  EXPECT_THROW(parse_jobs_json("[{\"name\":\"a\"}] extra", "j"), FleetError);
  EXPECT_THROW(parse_jobs_json("[{\"name\":\"a\"", "j"), FleetError);
  EXPECT_THROW(parse_jobs_json("[]", "j"), FleetError);
}

/// A seed travels as its literal digits: 2^53 + 1 has no double.
TEST(FleetJobfile, JsonSeedKeepsAllDigits) {
  const std::vector<JobSpec> jobs = parse_jobs_json(
      R"([{"name": "a", "seed": 9007199254740993}])", "j");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].seed, 9007199254740993u);
  EXPECT_THROW(parse_jobs_json(R"([{"name":"a","seed":1e3}])", "j"),
               FleetError);
}

/// Escapes such as \r and \uXXXX decode inside a job name.
TEST(FleetJobfile, JsonNamesDecodeEscapes) {
  const std::vector<JobSpec> jobs =
      parse_jobs_json(R"([{"name":"a\rb"},{"name":"a\u0041\/"}])", "j");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "a\rb");
  EXPECT_EQ(jobs[1].name, "aA/");
}

TEST(FleetJobfile, JsonErrorsNameFileAndLine) {
  auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)parse_jobs_json(text, "jobs.json");
    } catch (const FleetError& e) {
      return e.what();
    }
    return "";
  };
  // Syntax errors carry a column; a wrong shape names the line.
  EXPECT_EQ(error_of("[\n {\"name\": \"a\",}\n]"),
            "jobs.json: trailing comma at line 2 column 15");
  EXPECT_EQ(error_of("[\n {\"name\": \"a\"},\n 4\n]"),
            "jobs.json line 3: expected an object");
}

/// cell_bits / int8 travel through CSV and JSON alike; int8 without
/// cell_bits is refused at load, naming the line.
TEST(FleetJobfile, QuantFieldsParseInCsvAndJson) {
  const std::vector<JobSpec> csv = parse_jobs_csv(
      "name,cell_bits,int8\nq4,4,1\nq2,2,0\nfp,0,0\n", "q.csv");
  const std::vector<JobSpec> json = parse_jobs_json(
      R"([{"name":"q4","cell_bits":4,"int8":1},{"name":"q2","cell_bits":2},)"
      R"( {"name":"fp"}])",
      "q.json");
  for (const auto* jobs : {&csv, &json}) {
    ASSERT_EQ(jobs->size(), 3u);
    EXPECT_EQ((*jobs)[0].cell_bits, 4u);
    EXPECT_TRUE((*jobs)[0].int8);
    EXPECT_EQ((*jobs)[1].cell_bits, 2u);
    EXPECT_FALSE((*jobs)[1].int8);
    EXPECT_EQ((*jobs)[2].cell_bits, 0u);
    EXPECT_FALSE((*jobs)[2].int8);
  }
  auto error_of = [](auto parse) -> std::string {
    try {
      (void)parse();
    } catch (const FleetError& e) {
      return e.what();
    }
    return "";
  };
  const std::string csv_err = error_of(
      [] { return parse_jobs_csv("name,int8\nok,0\nbad,1\n", "q.csv"); });
  EXPECT_NE(csv_err.find("q.csv line 3: int8 (--int8) requires cell_bits"),
            std::string::npos)
      << csv_err;
  const std::string json_err = error_of([] {
    return parse_jobs_json("[\n {\"name\": \"bad\", \"int8\": 1}\n]", "q.json");
  });
  EXPECT_NE(json_err.find("q.json line 2"), std::string::npos) << json_err;
  EXPECT_THROW(parse_jobs_csv("name,cell_bits\na,5\n", "q.csv"), FleetError);
}

/// An unknown model or policy fails the load, naming file, line (the job's
/// row or object) and field, instead of loading and failing the job at bind.
TEST(FleetJobfile, RejectsUnknownModelAndPolicyNames) {
  auto error_of = [](auto parse) -> std::string {
    try {
      (void)parse();
    } catch (const FleetError& e) {
      return e.what();
    }
    return "";
  };
  const std::string model_err = error_of([] {
    return parse_jobs_csv("name,model\nok,vgg11\nbad,bogus\n", "jobs.csv");
  });
  EXPECT_NE(model_err.find("jobs.csv line 3: model (--model): unknown name "
                           "'bogus'"),
            std::string::npos)
      << model_err;
  const std::string policy_err = error_of([] {
    return parse_jobs_json(
        "[\n {\"name\": \"a\",\n  \"policy\": \"bogus\"}\n]", "jobs.json");
  });
  EXPECT_NE(policy_err.find("jobs.json line 2: policy (--policy): unknown "
                            "name 'bogus'"),
            std::string::npos)
      << policy_err;
}

/// A job's config is the builder's config for the same spec under `saf`.
TEST(FleetJobfile, TrainerConfigIsTheBuildersConfig) {
  JobSpec fp32 = tiny_job("fp32", 5, 3);
  JobSpec q4 = tiny_job("q4", 6, 5);
  q4.policy = "refresh";
  q4.cell_bits = 4;
  q4.int8 = true;
  for (const JobSpec& j : {fp32, q4}) {
    ExperimentSpec spec{.model = j.model,
                        .policy = j.policy,
                        .epochs = j.epochs,
                        .train = j.train,
                        .test = j.test,
                        .seed = j.seed,
                        .fault_model = "saf"};
    if (j.cell_bits > 0)
      spec.quant = {.enabled = true, .cell_bits = j.cell_bits,
                    .int8_gemm = j.int8};
    EXPECT_EQ(config_fingerprint(j.trainer_config()),
              config_fingerprint(make_trainer_config(spec)))
        << j.name;
  }
}

// ------------------------------------------------------------ chip pool

/// Cell-exact snapshot of an RCS (densities only count faults; the
/// serialized state distinguishes *which* cells are stuck).
std::string rcs_state(const Rcs& rcs) {
  ckpt::ByteWriter w;
  rcs.save_state(w);
  return w.bytes();
}

TEST(FleetChip, NativeImprintIsAFixedPerChipPattern) {
  ChipSpec spec = pristine_chip("c");
  spec.native_fault_density = 0.01;
  SimChip chip(0, spec);

  Rcs a(RcsConfig::sized_for(8, 32, 32));
  Rcs b(RcsConfig::sized_for(8, 32, 32));
  EXPECT_GT(chip.imprint_native(a), 0u);
  chip.imprint_native(b);
  // Same chip, same geometry: identical cell-level fault pattern.
  EXPECT_EQ(rcs_state(a), rcs_state(b));

  // A different chip of the same spec family stamps a different pattern.
  SimChip other(1, ChipSpec{"d", 0.01, 0.9, 0.0, 0.0, 99});
  Rcs c(RcsConfig::sized_for(8, 32, 32));
  other.imprint_native(c);
  EXPECT_NE(rcs_state(a), rcs_state(c));
}

TEST(FleetChip, WearRoundsAreDeterministicAndDistinct) {
  ChipSpec spec = pristine_chip("w");
  spec.wear_xbar_fraction = 0.5;
  spec.wear_cell_fraction = 0.01;

  SimChip x(0, spec);
  SimChip y(0, spec);
  Rcs rx(RcsConfig::sized_for(8, 32, 32));
  Rcs ry(RcsConfig::sized_for(8, 32, 32));
  const std::size_t w1x = x.inject_wear(rx);
  const std::size_t w1y = y.inject_wear(ry);
  EXPECT_GT(w1x, 0u);
  EXPECT_EQ(w1x, w1y);
  EXPECT_EQ(rcs_state(rx), rcs_state(ry));
  // The next round draws a fresh pattern on the same chip.
  const std::string after1 = rcs_state(rx);
  x.inject_wear(rx);
  EXPECT_NE(rcs_state(rx), after1);
}

TEST(FleetChip, PoolPicksHealthiestFreeChip) {
  ChipPool pool = ChipPool::homogeneous(3, pristine_chip());
  EXPECT_EQ(pool.free_count(), 3u);
  // All pristine: lowest id wins.
  EXPECT_EQ(pool.best_free_chip(4, 0.05, 2.0), 0u);
  pool.chip(0).bind(42);
  EXPECT_EQ(pool.best_free_chip(4, 0.05, 2.0), 1u);
  EXPECT_EQ(pool.best_free_chip(4, 0.05, 2.0, /*exclude=*/1), 2u);
  pool.chip(1).bind(43);
  pool.chip(2).bind(44);
  EXPECT_EQ(pool.best_free_chip(4, 0.05, 2.0), kNoIndex);
  EXPECT_THROW(pool.chip(0).bind(45), FleetError);
}

// ----------------------------------------------- migration determinism

/// Train `spec` uninterrupted on a lone pristine chip.
TrainResult single_chip_run(const JobSpec& spec) {
  ChipPool pool = ChipPool::homogeneous(1, pristine_chip());
  SchedulerConfig cfg;
  Scheduler sched(pool, cfg);
  sched.submit(spec);
  const FleetSummary s = sched.run();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.migrations, 0u);
  return sched.jobs()[0].trainer->result();
}

/// The acceptance-criteria test: preempt on chip A, resume on chip B
/// (identical chips — the job's fault schedule travels with it), and the
/// training history must match the unmigrated run bitwise. Exercised at 1
/// and 4 threads like the checkpoint resume tests.
void run_migration_determinism(std::size_t threads) {
  FleetThreadGuard guard(threads);
  const JobSpec spec = tiny_job("det", /*seed=*/21);
  const TrainResult base = single_chip_run(spec);
  ASSERT_EQ(base.history.size(), spec.epochs);

  ChipPool pool = ChipPool::homogeneous(2, pristine_chip());
  SchedulerConfig cfg;
  cfg.force_migrate_at_epoch = 2;
  Scheduler sched(pool, cfg);
  sched.submit(spec);
  const FleetSummary s = sched.run();
  EXPECT_EQ(s.completed, 1u);
  ASSERT_EQ(s.migrations, 1u);
  EXPECT_EQ(sched.migrations()[0].at_epoch, 2u);
  EXPECT_NE(sched.migrations()[0].from_chip, sched.migrations()[0].to_chip);

  expect_bitwise_equal_history(base, sched.jobs()[0].trainer->result());
}

TEST(FleetMigration, BitwiseDeterministicSerial) {
  run_migration_determinism(1);
}

TEST(FleetMigration, BitwiseDeterministicFourThreads) {
  run_migration_determinism(4);
}

/// Builds a bound, deployed job on `pool.chip(0)` outside the scheduler,
/// for the migration edge-case tests.
FleetJob deployed_job(const JobSpec& spec, ChipPool& pool) {
  FleetJob job;
  job.spec = spec;
  job.cfg = spec.trainer_config();
  job.trainer = std::make_unique<FaultAwareTrainer>(job.cfg);
  pool.chip(0).imprint_native(job.trainer->rcs());
  job.trainer->begin_training();
  pool.chip(0).bind(0);
  job.chip = 0;
  job.state = JobState::kRunning;
  return job;
}

TEST(FleetMigration, MigrateAtEpochZeroIsExact) {
  const JobSpec spec = tiny_job("epoch0", /*seed=*/31);
  const TrainResult base = single_chip_run(spec);

  // Migrate before a single epoch has run: the epoch-0 checkpoint must
  // already carry the deployed state (begin_training ran at bind).
  ChipPool pool = ChipPool::homogeneous(2, pristine_chip());
  FleetJob job = deployed_job(spec, pool);
  EXPECT_EQ(job.trainer->epochs_completed(), 0u);
  migrate_job(job, 0, pool.chip(0), pool.chip(1));
  EXPECT_EQ(job.chip, 1u);
  EXPECT_TRUE(pool.chip(0).free());
  EXPECT_TRUE(job.trainer->run_slice(0));
  expect_bitwise_equal_history(base, job.trainer->result());
}

TEST(FleetMigration, DoubleMigrationIsExact) {
  const JobSpec spec = tiny_job("double", /*seed=*/33);
  const TrainResult base = single_chip_run(spec);

  ChipPool pool = ChipPool::homogeneous(3, pristine_chip());
  FleetJob job = deployed_job(spec, pool);
  EXPECT_FALSE(job.trainer->run_slice(1));
  // Two back-to-back migrations with no training in between.
  migrate_job(job, 0, pool.chip(0), pool.chip(1));
  migrate_job(job, 0, pool.chip(1), pool.chip(2));
  EXPECT_EQ(job.migrations, 2u);
  EXPECT_TRUE(job.trainer->run_slice(0));
  expect_bitwise_equal_history(base, job.trainer->result());
}

TEST(FleetMigration, PreFaultedTargetImprintsItsDefects) {
  const JobSpec spec = tiny_job("prefault", /*seed=*/35, /*epochs=*/3);

  std::vector<ChipSpec> specs(2, pristine_chip());
  specs[0].name = "clean";
  specs[1].name = "scarred";
  specs[1].native_fault_density = 0.02;
  specs[1].seed = 77;
  ChipPool pool(std::move(specs));

  FleetJob job = deployed_job(spec, pool);
  EXPECT_FALSE(job.trainer->run_slice(1));
  const std::size_t faults_before = job.trainer->result().history.back()
                                        .total_faults;
  migrate_job(job, 0, pool.chip(0), pool.chip(1));
  // The target's native defects are stamped into the migrated-in RCS...
  EXPECT_GT(pool.chip(1).native_faults_imprinted(), 0u);
  // ...and the job still trains to completion on the scarred chip.
  EXPECT_TRUE(job.trainer->run_slice(0));
  EXPECT_EQ(job.trainer->result().history.size(), spec.epochs);
  EXPECT_GT(job.trainer->result().history.back().total_faults, faults_before);
}

TEST(FleetMigration, RefusesBusyTargetAndForeignSource) {
  const JobSpec spec = tiny_job("refuse", /*seed=*/37, /*epochs=*/2);
  ChipPool pool = ChipPool::homogeneous(3, pristine_chip());
  FleetJob job = deployed_job(spec, pool);
  pool.chip(1).bind(9);
  EXPECT_THROW(migrate_job(job, 0, pool.chip(0), pool.chip(1)), FleetError);
  EXPECT_THROW(migrate_job(job, 0, pool.chip(2), pool.chip(2)), FleetError);
  EXPECT_THROW(migrate_job(job, 5, pool.chip(0), pool.chip(2)), FleetError);
}

// ------------------------------------------------------------ scheduler

TEST(FleetScheduler, FifoRunsInSubmissionOrderOnOneChip) {
  ChipPool pool = ChipPool::homogeneous(1, pristine_chip());
  SchedulerConfig cfg;
  Scheduler sched(pool, cfg);
  for (int i = 0; i < 3; ++i)
    sched.submit(tiny_job("f" + std::to_string(i), 40 + i, /*epochs=*/1));
  const FleetSummary s = sched.run();
  EXPECT_EQ(s.completed, 3u);
  const std::vector<FleetJob>& jobs = sched.jobs();
  EXPECT_LT(jobs[0].finish_step, jobs[1].finish_step);
  EXPECT_LT(jobs[1].finish_step, jobs[2].finish_step);
}

TEST(FleetScheduler, PriorityPolicyRunsHighestFirst) {
  ChipPool pool = ChipPool::homogeneous(1, pristine_chip());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kPriority;
  Scheduler sched(pool, cfg);
  JobSpec lo = tiny_job("lo", 50, 1);
  JobSpec hi = tiny_job("hi", 51, 1);
  JobSpec mid = tiny_job("mid", 52, 1);
  lo.priority = 0;
  hi.priority = 9;
  mid.priority = 4;
  sched.submit(lo);
  sched.submit(hi);
  sched.submit(mid);
  const FleetSummary s = sched.run();
  EXPECT_EQ(s.completed, 3u);
  const std::vector<FleetJob>& jobs = sched.jobs();
  EXPECT_LT(jobs[1].finish_step, jobs[2].finish_step);  // hi before mid
  EXPECT_LT(jobs[2].finish_step, jobs[0].finish_step);  // mid before lo
}

TEST(FleetScheduler, AdmissionControlRejectsBeyondQueueBound) {
  ChipPool pool = ChipPool::homogeneous(1, pristine_chip());
  SchedulerConfig cfg;
  cfg.max_queued = 2;
  Scheduler sched(pool, cfg);
  for (int i = 0; i < 4; ++i)
    sched.submit(tiny_job("q" + std::to_string(i), 60 + i, /*epochs=*/1));
  const std::vector<FleetJob>& jobs = sched.jobs();
  EXPECT_EQ(jobs[0].state, JobState::kQueued);
  EXPECT_EQ(jobs[1].state, JobState::kQueued);
  EXPECT_EQ(jobs[2].state, JobState::kRejected);
  EXPECT_EQ(jobs[3].state, JobState::kRejected);
  EXPECT_NE(jobs[2].failure.find("admission"), std::string::npos);

  const FleetSummary s = sched.run();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_FALSE(jobs[2].trainer);  // rejected jobs never construct a trainer
}

TEST(FleetScheduler, BadModelFailsTheJobNotTheFleet) {
  ChipPool pool = ChipPool::homogeneous(1, pristine_chip());
  SchedulerConfig cfg;
  Scheduler sched(pool, cfg);
  JobSpec bad = tiny_job("bad", 70, 1);
  bad.model = "transformer9000";
  sched.submit(bad);
  sched.submit(tiny_job("good", 71, 1));
  const FleetSummary s = sched.run();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(sched.jobs()[0].state, JobState::kFailed);
  EXPECT_FALSE(sched.jobs()[0].failure.empty());
  EXPECT_EQ(sched.jobs()[1].state, JobState::kCompleted);
}

TEST(FleetScheduler, HealthDrivenMigrationMovesOffWearingChip) {
  // Chip 0 wears aggressively; chip 1 is pristine. The health score of
  // chip 0 collapses within a couple of slices and the job must move.
  std::vector<ChipSpec> specs(2, pristine_chip());
  specs[0].name = "wearing";
  specs[0].wear_xbar_fraction = 0.8;
  specs[0].wear_cell_fraction = 0.02;
  specs[1].name = "fresh";
  ChipPool pool(std::move(specs));

  SchedulerConfig cfg;
  cfg.migrate_below = 0.9;
  Scheduler sched(pool, cfg);
  sched.submit(tiny_job("mover", 80, /*epochs=*/4));
  const FleetSummary s = sched.run();
  EXPECT_EQ(s.completed, 1u);
  ASSERT_GE(s.migrations, 1u);
  const MigrationRecord& m = sched.migrations()[0];
  EXPECT_EQ(m.from_chip, 0u);
  EXPECT_EQ(m.to_chip, 1u);
  EXPECT_GT(m.to_score, m.from_score);
}

// --------------------------------------------------- telemetry attribution

TEST(FleetTelemetry, TwoJobsMetricsDoNotInterleave) {
  telemetry::Registry::instance().reset();
  telemetry::set_enabled(true);

  ChipPool pool = ChipPool::homogeneous(2, pristine_chip());
  SchedulerConfig cfg;
  Scheduler sched(pool, cfg);
  sched.submit(tiny_job("left", 90, /*epochs=*/2));
  sched.submit(tiny_job("right", 91, /*epochs=*/3));
  const FleetSummary s = sched.run();
  telemetry::set_enabled(false);
  EXPECT_EQ(s.completed, 2u);

  // Each job's trainer counters land under its own label...
  std::uint64_t left = 0, right = 0, unlabeled = 0, slices = 0;
  for (const auto& [name, value] :
       telemetry::Registry::instance().counters()) {
    if (name == "job:left/trainer.epochs") left = value;
    if (name == "job:right/trainer.epochs") right = value;
    if (name == "trainer.epochs") unlabeled = value;
    if (name == "fleet.slices") slices = value;
  }
  EXPECT_EQ(left, 2u);
  EXPECT_EQ(right, 3u);
  // ...nothing leaks into the unlabeled stream...
  EXPECT_EQ(unlabeled, 0u);
  // ...and fleet-level instruments stay unlabeled aggregates.
  EXPECT_EQ(slices, 5u);
  telemetry::Registry::instance().reset();
}

}  // namespace
}  // namespace fleet
}  // namespace remapd
