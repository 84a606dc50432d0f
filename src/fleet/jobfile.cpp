#include "fleet/jobfile.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "util/json.hpp"

namespace remapd {
namespace fleet {

namespace {

[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw FleetError(where + ": " + what);
}

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Full-string integer parse; anything else (empty, trailing junk, out of
/// range) is an error naming the field — same contract as util/env.
long long parse_int(const std::string& where, const std::string& field,
                    const std::string& value, long long lo, long long hi) {
  const std::string v = trimmed(value);
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
    fail(where, "field '" + field + "': cannot parse '" + value +
                    "' (expected integer)");
  if (n < lo || n > hi)
    fail(where, "field '" + field + "': value " + std::to_string(n) +
                    " out of range [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
  return n;
}

/// Assign one (field, value) pair onto a spec. The single authority for
/// which fields a job file may set, shared by the CSV and JSON paths.
void set_field(JobSpec& s, const std::string& where, const std::string& field,
               const std::string& value) {
  if (field == "name") {
    s.name = trimmed(value);
  } else if (field == "model") {
    s.model = trimmed(value);
  } else if (field == "policy") {
    s.policy = trimmed(value);
  } else if (field == "epochs") {
    s.epochs = static_cast<std::size_t>(
        parse_int(where, field, value, 1, 1'000'000));
  } else if (field == "train") {
    s.train = static_cast<std::size_t>(
        parse_int(where, field, value, 1, 100'000'000));
  } else if (field == "test") {
    s.test = static_cast<std::size_t>(
        parse_int(where, field, value, 1, 100'000'000));
  } else if (field == "seed") {
    s.seed = static_cast<std::uint64_t>(
        parse_int(where, field, value, 0, INT64_MAX));
  } else if (field == "priority") {
    s.priority =
        static_cast<int>(parse_int(where, field, value, -1'000'000, 1'000'000));
  } else if (field == "cell_bits") {
    s.cell_bits =
        static_cast<std::size_t>(parse_int(where, field, value, 0, 4));
  } else if (field == "int8") {
    s.int8 = parse_int(where, field, value, 0, 1) != 0;
  } else {
    fail(where, "unknown field '" + field + "'");
  }
}

void check_unique_names(const std::vector<JobSpec>& jobs,
                        const std::string& ctx) {
  std::set<std::string> seen;
  for (const JobSpec& j : jobs)
    if (!seen.insert(j.name).second)
      fail(ctx, "duplicate job name '" + j.name + "'");
}

}  // namespace

std::vector<JobSpec> parse_jobs_csv(const std::string& text,
                                    const std::string& ctx) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  std::vector<std::string> header;
  std::vector<JobSpec> jobs;

  auto split = [](const std::string& s) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream ls(s);
    while (std::getline(ls, cell, ',')) cells.push_back(trimmed(cell));
    if (!s.empty() && s.back() == ',') cells.emplace_back();
    return cells;
  };

  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = trimmed(line);
    if (t.empty() || t[0] == '#') continue;
    const std::string where = ctx + " line " + std::to_string(lineno);

    if (header.empty()) {
      header = split(t);
      // Validate the column set up front so a typoed header is reported on
      // its own line, not as a bogus value error on line 2.
      JobSpec probe;
      for (const std::string& col : header) {
        if (col.empty()) fail(where, "empty column name in header");
        if (col == "name") continue;
        set_field(probe, where, col, col == "model" || col == "policy"
                                         ? "x"
                                         : "1");
      }
      continue;
    }

    const std::vector<std::string> cells = split(t);
    if (cells.size() != header.size())
      fail(where, "expected " + std::to_string(header.size()) +
                      " fields (per header), got " +
                      std::to_string(cells.size()));
    JobSpec spec;
    for (std::size_t i = 0; i < header.size(); ++i)
      set_field(spec, where, header[i], cells[i]);
    spec.validate(where);
    jobs.push_back(std::move(spec));
  }
  if (header.empty()) fail(ctx, "missing CSV header row");
  if (jobs.empty()) fail(ctx, "no jobs in file");
  check_unique_names(jobs, ctx);
  return jobs;
}

std::vector<JobSpec> parse_jobs_json(const std::string& text,
                                     const std::string& ctx) {
  using Kind = json::Value::Kind;
  json::Value doc;
  std::string err;
  if (!json::parse(text, &doc, &err)) fail(ctx, err);
  auto at_line = [&](std::size_t line) {
    return ctx + " line " + std::to_string(line);
  };
  if (!doc.is(Kind::kArray))
    fail(at_line(doc.line), "expected an array of job objects");

  std::vector<JobSpec> jobs;
  for (const json::Value& obj : doc.items) {
    if (!obj.is(Kind::kObject)) fail(at_line(obj.line), "expected an object");
    JobSpec spec;
    for (const json::Member& m : obj.members) {
      // A number reaches set_field as its literal text, so parse_int sees
      // every digit of a 64-bit seed and rejects a float.
      const json::Value& v = m.value;
      if (!v.is(Kind::kString) && !v.is(Kind::kNumber))
        fail(at_line(m.line),
             "field '" + m.key + "': expected string or integer");
      set_field(spec, at_line(m.line), m.key, v.str);
    }
    spec.validate(at_line(obj.line));
    jobs.push_back(std::move(spec));
  }
  if (jobs.empty()) fail(ctx, "no jobs in file");
  check_unique_names(jobs, ctx);
  return jobs;
}

std::vector<JobSpec> load_job_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FleetError(path + ": cannot open job file");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) throw FleetError(path + ": empty job file");
  return text[first] == '[' ? parse_jobs_json(text, path)
                            : parse_jobs_csv(text, path);
}

}  // namespace fleet
}  // namespace remapd
