// Checkpoint subsystem: serialization primitives, the checksummed
// container, corruption rejection, and the headline guarantee — a run
// interrupted at a checkpoint and resumed in a fresh process state
// continues *bitwise* identically to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/crc32.hpp"
#include "tensor/tensor.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace remapd {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "remapd_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// ------------------------------------------------------------- primitives

TEST(Snapshot, PrimitiveRoundTrip) {
  ckpt::ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f32(3.25f);
  w.f64(-1.0 / 3.0);
  w.boolean(true);
  w.str("hello checkpoint");
  w.vec_u8({1, 2, 3});
  w.vec_u64({10, 20});
  w.vec_f32({0.5f, -0.5f});
  w.vec_f64({1e-300, 1e300});

  ckpt::ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.f64(), -1.0 / 3.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_EQ(r.vec_u8(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{10, 20}));
  EXPECT_EQ(r.vec_f32(), (std::vector<float>{0.5f, -0.5f}));
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{1e-300, 1e300}));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Snapshot, ReadPastEndThrows) {
  ckpt::ByteWriter w;
  w.u32(7);
  ckpt::ByteReader r(w.bytes().data(), w.size());
  r.u32();
  EXPECT_THROW(r.u8(), ckpt::CheckpointError);
}

TEST(Snapshot, ExpectEndCatchesLeftovers) {
  ckpt::ByteWriter w;
  w.u64(1);
  w.u64(2);
  ckpt::ByteReader r(w.bytes().data(), w.size());
  r.u64();
  EXPECT_THROW(r.expect_end(), ckpt::CheckpointError);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(ckpt::crc32(s, 9), 0xCBF43926u);
}

TEST(Snapshot, TensorRoundTripAndShapeCheck) {
  Tensor t = Tensor::zeros({2, 3});
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(i) * 0.25f;
  ckpt::ByteWriter w;
  save_tensor(w, t);
  {
    ckpt::ByteReader r(w.bytes().data(), w.size());
    const Tensor back = load_tensor(r);
    ASSERT_EQ(back.shape(), t.shape());
    for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
  }
  {
    ckpt::ByteReader r(w.bytes().data(), w.size());
    Tensor wrong = Tensor::zeros({3, 2});
    EXPECT_THROW(load_tensor_into(r, wrong), ckpt::CheckpointError);
  }
}

TEST(Snapshot, RngRoundTripIncludesDistributionCache) {
  Rng a(123);
  // Odd number of normal() draws: normal_distribution caches a Box-Muller
  // spare, so the next draw comes from internal state, not the engine.
  for (int i = 0; i < 7; ++i) a.normal();
  a.uniform();

  ckpt::ByteWriter w;
  a.save_state(w);
  Rng b(999);  // deliberately different stream before restore
  ckpt::ByteReader r(w.bytes().data(), w.size());
  b.load_state(r);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.normal(), b.normal());
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.uniform_int(0, 1 << 20), b.uniform_int(0, 1 << 20));
  }
}

// -------------------------------------------------------------- container

ckpt::CheckpointWriter small_checkpoint() {
  ckpt::CheckpointWriter w;
  ckpt::ByteWriter& a = w.section("alpha");
  a.str("first section");
  a.u64(42);
  ckpt::ByteWriter& b = w.section("beta");
  b.vec_f64({1.5, -2.5});
  return w;
}

TEST(Checkpoint, SectionRoundTrip) {
  const std::string bytes = small_checkpoint().serialize();
  const ckpt::CheckpointReader r = ckpt::CheckpointReader::from_bytes(bytes);
  ASSERT_EQ(r.sections().size(), 2u);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));
  ckpt::ByteReader a = r.open("alpha");
  EXPECT_EQ(a.str(), "first section");
  EXPECT_EQ(a.u64(), 42u);
  a.expect_end();
  ckpt::ByteReader b = r.open("beta");
  EXPECT_EQ(b.vec_f64(), (std::vector<double>{1.5, -2.5}));
  EXPECT_THROW(static_cast<void>(r.open("gamma")), ckpt::CheckpointError);
}

TEST(Checkpoint, DuplicateSectionThrows) {
  ckpt::CheckpointWriter w;
  w.section("dup");
  EXPECT_THROW(w.section("dup"), ckpt::CheckpointError);
}

TEST(Checkpoint, EveryFlippedByteIsRejected) {
  const std::string good = small_checkpoint().serialize();
  ASSERT_NO_THROW(ckpt::CheckpointReader::from_bytes(good));
  // A flip anywhere — magic, header, table, payload — must be caught.
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW(ckpt::CheckpointReader::from_bytes(bad),
                 ckpt::CheckpointError)
        << "flip at byte " << pos << " was accepted";
  }
}

TEST(Checkpoint, OversizedStringPairCountIsRejectedBeforeAllocating) {
  // A count no section could hold (two u64 lengths per pair) is a typed
  // error, not a reserve() of billions of pairs.
  ckpt::ByteWriter w;
  w.u64(std::uint64_t{1} << 40);
  w.str("k");
  w.str("v");
  ckpt::ByteReader r(w.bytes().data(), w.bytes().size());
  EXPECT_THROW(ckpt::load_string_pairs(r), ckpt::CheckpointError);
}

TEST(Checkpoint, TruncationIsRejected) {
  const std::string good = small_checkpoint().serialize();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{17}, good.size() - 1}) {
    EXPECT_THROW(ckpt::CheckpointReader::from_bytes(good.substr(0, keep)),
                 ckpt::CheckpointError)
        << "truncation to " << keep << " bytes was accepted";
  }
}

TEST(Checkpoint, WrongVersionIsRejected) {
  std::string bytes = small_checkpoint().serialize();
  // format_version lives right after the 8-byte magic (little-endian u32);
  // bump it and fix nothing else: version check fires before any CRC.
  bytes[8] = static_cast<char>(ckpt::kFormatVersion + 1);
  try {
    ckpt::CheckpointReader::from_bytes(bytes);
    FAIL() << "wrong version accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Checkpoint, AtomicWriteLeavesNoTmpFile) {
  const std::string path = tmp_path("atomic.ckpt");
  small_checkpoint().write_file(path);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_NO_THROW(ckpt::CheckpointReader{path});
  // Overwrite is atomic too.
  small_checkpoint().write_file(path);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(ckpt::CheckpointReader{tmp_path("does_not_exist.ckpt")},
               ckpt::CheckpointError);
}

// ----------------------------------------------------- bitwise resume

class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

TrainerConfig resume_cfg() {
  TrainerConfig cfg;
  cfg.model = "vgg11";
  cfg.epochs = 4;
  cfg.batch_size = 16;
  cfg.data.train = 48;
  cfg.data.test = 32;
  cfg.data.image_size = 12;
  cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
  cfg.policy = "remap-d";
  return cfg;
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
    EXPECT_EQ(x.new_upsets, y.new_upsets) << "epoch " << i;
    EXPECT_EQ(x.live_upsets, y.live_upsets) << "epoch " << i;
    EXPECT_EQ(x.refreshed_cells, y.refreshed_cells) << "epoch " << i;
    EXPECT_EQ(x.refresh_cycles, y.refresh_cycles) << "epoch " << i;
  }
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
  EXPECT_EQ(a.total_remaps, b.total_remaps);
}

/// The headline test: run 4 epochs straight; separately run 2 epochs,
/// checkpoint, resume in a fresh trainer, finish — everything (per-epoch
/// metrics, weights, fault maps, task assignments) must match bitwise.
/// The final-state comparison is done on the serialized checkpoints of
/// both runs, which cover every stateful component byte for byte.
void run_resume_comparison(std::size_t threads) {
  ThreadGuard guard(threads);
  const std::string mid = tmp_path("resume_mid_" + std::to_string(threads) +
                                   ".ckpt");
  const std::string end_a = tmp_path("resume_full_" + std::to_string(threads) +
                                     ".ckpt");
  const std::string end_b = tmp_path("resume_resumed_" +
                                     std::to_string(threads) + ".ckpt");

  // Leg 1: uninterrupted reference run.
  TrainResult full;
  {
    FaultAwareTrainer trainer(resume_cfg());
    full = trainer.run();
    trainer.save_checkpoint(end_a);
  }

  // Leg 2: train 2 epochs, checkpoint, stop.
  {
    TrainerConfig cfg = resume_cfg();
    cfg.checkpoint_path = mid;
    cfg.checkpoint_every = 1;
    cfg.stop_after_epochs = 2;
    FaultAwareTrainer trainer(cfg);
    const TrainResult partial = trainer.run();
    EXPECT_EQ(partial.history.size(), 2u);
  }
  ASSERT_TRUE(file_exists(mid));

  // Leg 3: fresh trainer, restore, finish the remaining epochs.
  TrainResult resumed;
  {
    TrainerConfig cfg = resume_cfg();
    cfg.resume_from = mid;
    FaultAwareTrainer trainer(cfg);
    resumed = trainer.run();
    trainer.save_checkpoint(end_b);
  }

  expect_bitwise_equal_history(full, resumed);
  // Byte-identical final checkpoints: weights, momentum, BN statistics,
  // RNG streams, cell-level fault maps, wear counters, task map, density
  // map, history — all of it.
  EXPECT_EQ(slurp(end_a), slurp(end_b));

  std::remove(mid.c_str());
  std::remove(end_a.c_str());
  std::remove(end_b.c_str());
}

TEST(CheckpointResume, BitwiseIdenticalSingleThread) {
  run_resume_comparison(1);
}

TEST(CheckpointResume, BitwiseIdenticalFourThreads) {
  run_resume_comparison(4);
}

TEST(CheckpointResume, CorruptCheckpointRefusesToResume) {
  const std::string path = tmp_path("corrupt.ckpt");
  {
    TrainerConfig cfg = resume_cfg();
    cfg.epochs = 2;
    cfg.faults = FaultScenario::ideal();
    FaultAwareTrainer trainer(cfg);
    trainer.run();
    trainer.save_checkpoint(path);
  }
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  TrainerConfig cfg = resume_cfg();
  cfg.epochs = 2;
  cfg.faults = FaultScenario::ideal();
  cfg.resume_from = path;
  EXPECT_THROW(FaultAwareTrainer{cfg}, ckpt::CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointResume, ConfigMismatchIsNamed) {
  const std::string path = tmp_path("mismatch.ckpt");
  {
    TrainerConfig cfg = resume_cfg();
    cfg.epochs = 2;
    cfg.faults = FaultScenario::ideal();
    FaultAwareTrainer trainer(cfg);
    trainer.run();
    trainer.save_checkpoint(path);
  }
  TrainerConfig cfg = resume_cfg();
  cfg.epochs = 2;
  cfg.faults = FaultScenario::ideal();
  cfg.seed = 4242;  // diverges from the checkpointed run
  cfg.resume_from = path;
  try {
    FaultAwareTrainer trainer(cfg);
    FAIL() << "seed mismatch accepted";
  } catch (const ckpt::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("seed"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// The fingerprint holds config fields only: no environment variable alters
// the arithmetic. A checkpoint from a build that still fingerprinted four
// env.* knobs is refused on its field count, before any field compares.
TEST(CheckpointResume, EnvFingerprintFieldsAreRefusedByCount) {
  TrainerConfig cfg = resume_cfg();
  cfg.epochs = 1;
  cfg.faults = FaultScenario::ideal();
  FaultAwareTrainer trainer(cfg);
  trainer.run();
  const std::string image = trainer.save_checkpoint_bytes();
  const auto reader = ckpt::CheckpointReader::from_bytes(image);

  ckpt::ByteReader r = reader.open("config");
  auto pairs = ckpt::load_string_pairs(r);
  const std::size_t fields = pairs.size();
  for (const auto& [name, value] : pairs)
    EXPECT_NE(name.rfind("env.", 0), 0u) << name << "=" << value;

  // Re-assemble the image with the four pairs the old fingerprint carried.
  pairs.emplace_back("env.wmax_rms", "4");
  pairs.emplace_back("env.grad_pin", "12");
  pairs.emplace_back("env.refresh_every", "1");
  pairs.emplace_back("env.drop_fraction", "0.050000000000000003");
  ckpt::CheckpointWriter w;
  for (const ckpt::SectionInfo& sec : reader.sections()) {
    ckpt::ByteWriter& out = w.section(sec.name);
    if (sec.name == "config") {
      ckpt::save_string_pairs(out, pairs);
      continue;
    }
    for (std::uint64_t i = 0; i < sec.size; ++i)
      out.u8(static_cast<std::uint8_t>(image[sec.offset + i]));
  }
  const std::string old_image = w.serialize();

  // Control: the untouched copy restores, so only the config differs.
  FaultAwareTrainer(cfg).restore_from_bytes(image);
  try {
    FaultAwareTrainer(cfg).restore_from_bytes(old_image);
    FAIL() << "a fingerprint with env.* fields was accepted";
  } catch (const ckpt::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("config fingerprint has " +
                       std::to_string(fields + 4) + " fields"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expects " + std::to_string(fields)),
              std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace remapd
