// Job-file ingestion for the fleet tool: a batch of JobSpecs from CSV
// (header row + one job per line) or a flat JSON array of objects. Parsing
// is strict in the spirit of the env-override layer: any malformed entry
// aborts the whole load with a FleetError naming the line and the field —
// a fleet must never silently run a misread job mix.
//
// CSV:   name,model,epochs          # header picks + orders the columns
//        jobA,resnet12,4
// JSON:  [{"name": "jobA", "model": "resnet12", "epochs": 4}]
//
// Recognized fields: name (required), model, policy, epochs, train, test,
// seed, priority, cell_bits, int8. Unknown fields or names, empty values,
// non-numeric numbers, int8 without cell_bits, duplicate job names, and
// ragged CSV rows are all hard errors.
#pragma once

#include <string>
#include <vector>

#include "fleet/job.hpp"

namespace remapd {
namespace fleet {

/// Load `path`, dispatching on content: a file whose first non-space byte
/// is '[' parses as JSON, anything else as CSV.
[[nodiscard]] std::vector<JobSpec> load_job_file(const std::string& path);

/// Parse CSV text. `ctx` prefixes error messages (usually the file name).
[[nodiscard]] std::vector<JobSpec> parse_jobs_csv(const std::string& text,
                                                  const std::string& ctx);

/// Parse a JSON array of flat objects (string / integer values only).
[[nodiscard]] std::vector<JobSpec> parse_jobs_json(const std::string& text,
                                                   const std::string& ctx);

}  // namespace fleet
}  // namespace remapd
