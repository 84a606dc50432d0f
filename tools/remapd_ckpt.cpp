// remapd_ckpt: checkpoint inspector. Validates a checkpoint file (magic,
// version, declared size, every CRC) and dumps its contents as JSON:
// header + section table, the RunMeta identity card, the config
// fingerprint, a per-crossbar fault summary of the "rcs" section, the BIST
// density map, and the task -> crossbar assignment.
//
// Exit status: 0 on a valid checkpoint, 1 on a corrupt/unreadable one (the
// CI resume job relies on the nonzero exit to catch bit flips).
//
// Usage: remapd_ckpt <checkpoint-file>

#include <cstdio>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "core/fault_density_map.hpp"
#include "util/json.hpp"
#include "xbar/mapper.hpp"

namespace {

using namespace remapd;

using json::escape;

void dump_sections(const ckpt::CheckpointReader& r) {
  std::printf("  \"format_version\": %u,\n  \"sections\": [",
              ckpt::kFormatVersion);
  bool first = true;
  for (const ckpt::SectionInfo& s : r.sections()) {
    std::printf("%s\n    {\"name\": \"%s\", \"offset\": %llu, \"size\": %llu, "
                "\"crc32\": %u}",
                first ? "" : ",", escape(s.name).c_str(),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc);
    first = false;
  }
  std::printf("\n  ]");
}

void dump_meta(const ckpt::CheckpointReader& r) {
  ckpt::ByteReader br = r.open("meta");
  ckpt::RunMeta m;
  m.load(br);
  std::printf(",\n  \"meta\": {\"model\": \"%s\", \"policy\": \"%s\", "
              "\"dataset\": \"%s\", \"seed\": %llu, \"epochs_total\": %llu, "
              "\"epochs_completed\": %llu, \"crossbars\": %llu, "
              "\"tasks\": %llu}",
              escape(m.model).c_str(), escape(m.policy).c_str(),
              escape(m.dataset).c_str(),
              static_cast<unsigned long long>(m.seed),
              static_cast<unsigned long long>(m.epochs_total),
              static_cast<unsigned long long>(m.epochs_completed),
              static_cast<unsigned long long>(m.crossbars),
              static_cast<unsigned long long>(m.tasks));
}

void dump_config(const ckpt::CheckpointReader& r) {
  ckpt::ByteReader br = r.open("config");
  const auto pairs = ckpt::load_string_pairs(br);
  std::printf(",\n  \"config\": {");
  bool first = true;
  for (const auto& [k, v] : pairs) {
    std::printf("%s\n    \"%s\": \"%s\"", first ? "" : ",", escape(k).c_str(),
                escape(v).c_str());
    first = false;
  }
  std::printf("\n  }");
}

void dump_fault_summary(const ckpt::CheckpointReader& r) {
  ckpt::ByteReader br = r.open("rcs");
  const std::uint64_t count = br.u64();
  std::size_t faults = 0, sa0 = 0, sa1 = 0, faulty_xbars = 0;
  std::uint64_t writes = 0;
  std::size_t worst = 0;
  double worst_density = 0.0, density_sum = 0.0;
  std::size_t cell_bits = 0, coded_bytes = 0, fp32_bytes = 0;
  std::vector<std::size_t> code_hist;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto s = Crossbar::summarize_snapshot(br);
    faults += s.fault_count;
    sa0 += s.sa0;
    sa1 += s.sa1;
    writes += s.array_writes;
    if (s.cell_bits > 0) {
      cell_bits = s.cell_bits;
      coded_bytes += s.coded_bytes;
      fp32_bytes += s.fp32_equiv_bytes;
      if (code_hist.size() < s.code_hist.size())
        code_hist.resize(s.code_hist.size(), 0);
      for (std::size_t c = 0; c < s.code_hist.size(); ++c)
        code_hist[c] += s.code_hist[c];
    }
    if (s.fault_count) ++faulty_xbars;
    const double d = s.rows != 0 && s.cols != 0
                         ? static_cast<double>(s.fault_count) /
                               static_cast<double>(s.rows * s.cols)
                         : 0.0;
    density_sum += d;
    if (d > worst_density) {
      worst_density = d;
      worst = static_cast<std::size_t>(i);
    }
  }
  std::printf(",\n  \"faults\": {\"crossbars\": %llu, \"faulty_crossbars\": "
              "%zu, \"total_faults\": %zu, \"sa0\": %zu, \"sa1\": %zu, "
              "\"array_writes\": %llu, \"mean_density\": %.8g, "
              "\"worst_crossbar\": %zu, \"worst_density\": %.8g}",
              static_cast<unsigned long long>(count), faulty_xbars, faults,
              sa0, sa1, static_cast<unsigned long long>(writes),
              count ? density_sum / static_cast<double>(count) : 0.0, worst,
              worst_density);
  if (cell_bits > 0) {
    // Level-coded arrays: bits per cell, the fleet-wide code histogram, and
    // the packed-nibble footprint vs the fp32 weight image it replaces.
    std::printf(",\n  \"quant\": {\"cell_bits\": %zu, \"coded_bytes\": %zu, "
                "\"fp32_equiv_bytes\": %zu, \"compression\": %.3g, "
                "\"code_histogram\": [",
                cell_bits, coded_bytes, fp32_bytes,
                coded_bytes ? static_cast<double>(fp32_bytes) /
                                  static_cast<double>(coded_bytes)
                            : 0.0);
    for (std::size_t c = 0; c < code_hist.size(); ++c)
      std::printf("%s%zu", c ? ", " : "", code_hist[c]);
    std::printf("]}");
  }
}

void dump_density(const ckpt::CheckpointReader& r) {
  ckpt::ByteReader br = r.open("density");
  FaultDensityMap map;
  map.load_state(br);
  std::printf(",\n  \"bist_density\": {\"crossbars\": %zu, \"surveys\": %zu, "
              "\"mean\": %.8g, \"max\": %.8g}",
              map.size(), map.surveys(), map.size() ? map.mean() : 0.0,
              map.size() ? map.max() : 0.0);
}

void dump_task_map(const ckpt::CheckpointReader& r) {
  ckpt::ByteReader br = r.open("mapper");
  LineScheme scheme = LineScheme::kSingleSided;
  const auto tasks = WeightMapper::read_task_map(br, &scheme);
  std::printf(",\n  \"line_scheme\": \"%s\"", line_scheme_name(scheme));
  std::printf(",\n  \"task_map\": [");
  bool first = true;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto& e = tasks[t];
    std::printf("%s\n    {\"task\": %zu, \"layer\": %zu, \"phase\": \"%s\", "
                "\"row0\": %zu, \"col0\": %zu, \"rows\": %zu, \"cols\": %zu, "
                "\"xbar\": %zu}",
                first ? "" : ",", t, e.layer, phase_name(e.phase), e.row0,
                e.col0, e.rows, e.cols, e.xbar);
    first = false;
  }
  std::printf("\n  ]");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: remapd_ckpt <checkpoint-file>\n");
    return 2;
  }
  try {
    const ckpt::CheckpointReader reader{std::string(argv[1])};
    std::printf("{\n  \"file\": \"%s\",\n", escape(argv[1]).c_str());
    dump_sections(reader);
    if (reader.has("meta")) dump_meta(reader);
    if (reader.has("config")) dump_config(reader);
    if (reader.has("rcs")) dump_fault_summary(reader);
    if (reader.has("density")) dump_density(reader);
    if (reader.has("mapper")) dump_task_map(reader);
    std::printf("\n}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remapd_ckpt: %s\n", e.what());
    return 1;
  }
  return 0;
}
