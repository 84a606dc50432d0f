#include "ckpt/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "ckpt/crc32.hpp"

namespace remapd {
namespace ckpt {
namespace {

/// Smallest section-table entry: an empty name (its u64 length), then the
/// u64 offset, u64 size and u32 CRC.
constexpr std::size_t kMinTableEntryBytes = 8 + 8 + 8 + 4;

}  // namespace

ByteWriter& CheckpointWriter::section(const std::string& name) {
  for (const auto& [n, w] : sections_)
    if (n == name) throw CheckpointError("duplicate section '" + name + "'");
  sections_.emplace_back(name, ByteWriter{});
  return sections_.back().second;
}

std::string CheckpointWriter::serialize() const {
  // Table bytes first (offsets need the table size, so lay the table out
  // with placeholder offsets, measure, then fill in real ones).
  ByteWriter table;
  const std::size_t header_fixed = 8 + 4 + 4 + 8 + 4;  // magic..table_crc
  for (const auto& [name, w] : sections_) {
    table.str(name);
    table.u64(0);  // offset placeholder (same width as the real value)
    table.u64(w.size());
    table.u32(crc32(w.bytes().data(), w.bytes().size()));
  }
  const std::size_t payload_base = header_fixed + table.size();

  ByteWriter real_table;
  std::uint64_t offset = payload_base;
  for (const auto& [name, w] : sections_) {
    real_table.str(name);
    real_table.u64(offset);
    real_table.u64(w.size());
    real_table.u32(crc32(w.bytes().data(), w.bytes().size()));
    offset += w.size();
  }

  std::uint64_t file_size = payload_base;
  for (const auto& [name, w] : sections_) file_size += w.size();

  ByteWriter out;
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  out.u64(file_size);
  out.u32(crc32(real_table.bytes().data(), real_table.bytes().size()));

  std::string image = out.bytes();
  image += real_table.bytes();
  for (const auto& [name, w] : sections_) image += w.bytes();
  return image;
}

void CheckpointWriter::write_file(const std::string& path) const {
  const std::string image = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw CheckpointError("cannot open '" + tmp + "' for writing");
    f.write(image.data(), static_cast<std::streamsize>(image.size()));
    f.flush();
    if (!f) throw CheckpointError("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

CheckpointReader::CheckpointReader(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw CheckpointError("cannot open '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  if (!f.good() && !f.eof())
    throw CheckpointError("read error on '" + path + "'");
  bytes_ = std::move(data);
  parse_and_validate();
}

CheckpointReader CheckpointReader::from_bytes(std::string bytes) {
  CheckpointReader r;
  r.bytes_ = std::move(bytes);
  r.parse_and_validate();
  return r;
}

void CheckpointReader::parse_and_validate() {
  const std::size_t header_fixed = 8 + 4 + 4 + 8 + 4;
  if (bytes_.size() < header_fixed)
    throw CheckpointError("file shorter than header (" +
                          std::to_string(bytes_.size()) + " bytes)");
  if (std::memcmp(bytes_.data(), kMagic, sizeof(kMagic)) != 0)
    throw CheckpointError("bad magic (not a remapd checkpoint)");

  ByteReader head(bytes_.data() + 8, header_fixed - 8);
  const std::uint32_t version = head.u32();
  if (version != kFormatVersion)
    throw CheckpointError("format version " + std::to_string(version) +
                          " unsupported (reader speaks " +
                          std::to_string(kFormatVersion) + ")");
  const std::uint32_t count = head.u32();
  const std::uint64_t declared_size = head.u64();
  const std::uint32_t table_crc = head.u32();
  if (declared_size != bytes_.size())
    throw CheckpointError("file truncated: header declares " +
                          std::to_string(declared_size) + " bytes, got " +
                          std::to_string(bytes_.size()));

  // The table ends where the first payload begins; parse entries off a
  // reader over the whole remainder, then CRC exactly the span consumed.
  ByteReader table(bytes_.data() + header_fixed,
                   bytes_.size() - header_fixed);
  // The count is unvalidated until the table CRC is checked: bound it by
  // what the remaining bytes can hold before reserving, so a corrupt count
  // is a CheckpointError rather than a giant allocation.
  if (count > table.remaining() / kMinTableEntryBytes)
    throw CheckpointError("section table claims " + std::to_string(count) +
                          " entries, more than " +
                          std::to_string(table.remaining()) +
                          " bytes can hold");
  toc_.clear();
  toc_.reserve(count);
  std::size_t table_bytes = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionInfo s;
    s.name = table.str();
    s.offset = table.u64();
    s.size = table.u64();
    s.crc = table.u32();
    table_bytes = bytes_.size() - header_fixed - table.remaining();
    toc_.push_back(std::move(s));
  }
  if (crc32(bytes_.data() + header_fixed, table_bytes) != table_crc)
    throw CheckpointError("section table checksum mismatch");

  for (const SectionInfo& s : toc_) {
    if (s.offset > bytes_.size() || s.size > bytes_.size() - s.offset)
      throw CheckpointError("section '" + s.name + "' overruns the file");
    if (crc32(bytes_.data() + s.offset, static_cast<std::size_t>(s.size)) !=
        s.crc)
      throw CheckpointError("section '" + s.name + "' checksum mismatch");
  }
}

bool CheckpointReader::has(const std::string& name) const {
  for (const SectionInfo& s : toc_)
    if (s.name == name) return true;
  return false;
}

ByteReader CheckpointReader::open(const std::string& name) const {
  for (const SectionInfo& s : toc_)
    if (s.name == name)
      return {bytes_.data() + s.offset, static_cast<std::size_t>(s.size)};
  throw CheckpointError("no section '" + name + "'");
}

void RunMeta::save(ByteWriter& w) const {
  w.str(model);
  w.str(policy);
  w.str(dataset);
  w.u64(seed);
  w.u64(epochs_total);
  w.u64(epochs_completed);
  w.u64(crossbars);
  w.u64(tasks);
}

void RunMeta::load(ByteReader& r) {
  model = r.str();
  policy = r.str();
  dataset = r.str();
  seed = r.u64();
  epochs_total = r.u64();
  epochs_completed = r.u64();
  crossbars = r.u64();
  tasks = r.u64();
}

void save_string_pairs(
    ByteWriter& w,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  w.u64(pairs.size());
  for (const auto& [k, v] : pairs) {
    w.str(k);
    w.str(v);
  }
}

std::vector<std::pair<std::string, std::string>> load_string_pairs(
    ByteReader& r) {
  const std::uint64_t n = r.u64();
  // Each pair is at least two empty strings (two u64 lengths).
  if (n > r.remaining() / 16)
    throw CheckpointError("string-pair count " + std::to_string(n) +
                          " overruns section");
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    pairs.emplace_back(std::move(k), std::move(v));
  }
  return pairs;
}

}  // namespace ckpt
}  // namespace remapd
