// remapd_report: offline reader for the health JSONL stream written by the
// reliability observatory (REMAPD_HEALTH=<path>, see src/obs/report.hpp).
//
//   remapd_report <health.jsonl> [--epochs] [--health] [--remaps] [--noc]
//                 [--top K] [--xbar N]
//
// With no section flag every section prints. Records are regrouped into
// runs on the stream's "run" lines (a bench process writes several). The
// tool is strict: the first malformed line aborts with its line number and
// exit code 1, which is what the CI smoke step relies on.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/jsonl.hpp"
#include "util/env.hpp"

namespace {

using JsonObject = remapd::json::Value;

struct Options {
  std::string path;
  bool epochs = false, health = false, remaps = false, noc = false;
  std::size_t top_k = 8;
  long long xbar = -1;  ///< restrict --health to one crossbar's time-series
};

struct Run {
  JsonObject info;  ///< the "run" line (may be empty for headerless input)
  std::vector<JsonObject> epochs, health, remaps, noc;
};

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <health.jsonl> [--epochs] [--health] [--remaps] [--noc]"
               " [--top K] [--xbar N]\n";
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--epochs") opt->epochs = true;
    else if (a == "--health") opt->health = true;
    else if (a == "--remaps") opt->remaps = true;
    else if (a == "--noc") opt->noc = true;
    else if (a == "--top" || a == "--xbar") {
      if (i + 1 >= argc) return false;
      // parse_uint throws naming the flag; main reports it.
      const std::uint64_t v = remapd::parse_uint(
          a, argv[++i],
          static_cast<std::uint64_t>(std::numeric_limits<long long>::max()));
      if (a == "--top") opt->top_k = static_cast<std::size_t>(v);
      else opt->xbar = static_cast<long long>(v);
    } else if (!a.empty() && a[0] == '-') {
      return false;
    } else if (opt->path.empty()) {
      opt->path = a;
    } else {
      return false;
    }
  }
  if (opt->path.empty()) return false;
  if (!opt->epochs && !opt->health && !opt->remaps && !opt->noc)
    opt->epochs = opt->health = opt->remaps = opt->noc = true;
  return true;
}

void print_run_header(const Run& run, std::size_t idx) {
  std::printf("== run %zu: model=%s policy=%s dataset=%s seed=%lld "
              "(%lld crossbars, %lldx%lld tiles) ==\n",
              idx, run.info.text("model", "?").c_str(),
              run.info.text("policy", "?").c_str(),
              run.info.text("dataset", "?").c_str(),
              static_cast<long long>(run.info.num("seed", 0)),
              static_cast<long long>(run.info.num("crossbars", 0)),
              static_cast<long long>(run.info.num("tiles_x", 0)),
              static_cast<long long>(run.info.num("tiles_y", 0)));
}

void print_epochs(const Run& run) {
  if (run.epochs.empty()) return;
  std::printf("\nepochs\n%6s %7s %11s %13s %11s %10s %13s %12s %11s\n",
              "epoch", "remaps", "new_faults", "total_faults", "train_loss",
              "test_acc", "est_abs_err", "bist_cycles", "noc_cycles");
  for (const JsonObject& e : run.epochs)
    std::printf("%6lld %7lld %11lld %13lld %11.4f %10.4f %13.6f %12lld %11lld\n",
                static_cast<long long>(e.num("epoch", 0)),
                static_cast<long long>(e.num("remaps", 0)),
                static_cast<long long>(e.num("new_faults", 0)),
                static_cast<long long>(e.num("total_faults", 0)),
                e.num("train_loss", 0), e.num("test_accuracy", 0),
                e.num("est_mean_abs_err", 0),
                static_cast<long long>(e.num("bist_cycles", 0)),
                static_cast<long long>(e.num("noc_cycles", 0)));
}

void print_health_row(const JsonObject& h) {
  std::printf("%6lld %6lld %11.5f %10.5f %6lld %6lld %8lld %7lld %s\n",
              static_cast<long long>(h.num("epoch", 0)),
              static_cast<long long>(h.num("xbar", 0)),
              h.num("true_density", 0), h.num("est_density", 0),
              static_cast<long long>(h.num("sa0", 0)),
              static_cast<long long>(h.num("sa1", 0)),
              static_cast<long long>(h.num("writes", 0)),
              static_cast<long long>(h.num("remaps", 0)),
              h.text("phase", "?").c_str());
}

void print_health(const Run& run, const Options& opt) {
  if (run.health.empty()) return;
  const char* head = "%6s %6s %11s %10s %6s %6s %8s %7s %s\n";
  if (opt.xbar >= 0) {
    std::printf("\nhealth time-series for crossbar %lld\n", opt.xbar);
    std::printf(head, "epoch", "xbar", "true_dens", "est_dens", "sa0", "sa1",
                "writes", "remaps", "phase");
    for (const JsonObject& h : run.health)
      if (static_cast<long long>(h.num("xbar", -1)) == opt.xbar)
        print_health_row(h);
    return;
  }

  double last_epoch = 0;
  for (const JsonObject& h : run.health)
    last_epoch = std::max(last_epoch, h.num("epoch", 0));
  std::vector<const JsonObject*> final_rows;
  for (const JsonObject& h : run.health)
    if (h.num("epoch", 0) == last_epoch) final_rows.push_back(&h);
  std::stable_sort(final_rows.begin(), final_rows.end(),
                   [](const JsonObject* a, const JsonObject* b) {
                     return a->num("true_density") > b->num("true_density");
                   });
  if (final_rows.size() > opt.top_k) final_rows.resize(opt.top_k);

  std::printf("\ntop-%zu degraded crossbars (epoch %lld)\n", opt.top_k,
              static_cast<long long>(last_epoch));
  std::printf(head, "epoch", "xbar", "true_dens", "est_dens", "sa0", "sa1",
              "writes", "remaps", "phase");
  for (const JsonObject* h : final_rows) print_health_row(*h);
}

void print_remaps(const Run& run, const Options& opt) {
  if (run.remaps.empty()) return;
  std::printf("\nremap audit (%zu decisions)\n", run.remaps.size());
  std::printf("%6s %6s %7s %9s %11s %11s %5s %6s %s\n", "epoch", "round",
              "sender", "receiver", "send_dens", "recv_dens", "hops", "cands",
              "reason");
  for (const JsonObject& r : run.remaps) {
    const long long recv = static_cast<long long>(r.num("receiver", -1));
    std::size_t cands = 0;
    if (const JsonObject* c = r.find("candidates")) cands = c->items.size();
    std::printf("%6lld %6s %7lld %9lld %11.5f %11.5f %5lld %6zu %s\n",
                static_cast<long long>(r.num("epoch", 0)),
                r.text("round", "?").c_str(),
                static_cast<long long>(r.num("sender", 0)), recv,
                r.num("sender_density", 0), r.num("receiver_density", 0),
                static_cast<long long>(r.num("hops", 0)), cands,
                r.text("reason", "?").c_str());
  }
  (void)opt;
}

void print_noc(const Run& run, const Options& opt) {
  if (run.noc.empty()) return;
  // Per-epoch hotspot ranking over the per-router records.
  std::vector<double> epochs;
  for (const JsonObject& n : run.noc) {
    const double e = n.num("epoch", 0);
    if (std::find(epochs.begin(), epochs.end(), e) == epochs.end())
      epochs.push_back(e);
  }
  std::sort(epochs.begin(), epochs.end());
  std::printf("\nNoC remap-traffic hotspots (top-%zu routers per epoch)\n",
              opt.top_k);
  for (const double e : epochs) {
    std::vector<const JsonObject*> rows;
    for (const JsonObject& n : run.noc)
      if (n.num("epoch", 0) == e && n.num("flits", 0) > 0)
        rows.push_back(&n);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const JsonObject* a, const JsonObject* b) {
                       return a->num("flits", 0) > b->num("flits", 0);
                     });
    if (rows.size() > opt.top_k) rows.resize(opt.top_k);
    std::printf("  epoch %lld:", static_cast<long long>(e));
    for (const JsonObject* n : rows)
      std::printf(" r%lld(%lld)",
                  static_cast<long long>(n->num("router", 0)),
                  static_cast<long long>(n->num("flits", 0)));
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, &opt)) {
      usage(argv[0]);
      return 2;
    }
  } catch (const std::runtime_error& e) {
    std::cerr << "remapd_report: " << e.what() << "\n";
    return 2;
  }

  std::ifstream in(opt.path);
  if (!in) {
    std::cerr << "remapd_report: cannot open " << opt.path << "\n";
    return 1;
  }

  std::vector<Run> runs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonObject obj;
    std::string err;
    if (!remapd::obs::parse_jsonl_line(line, &obj, &err)) {
      std::cerr << "remapd_report: " << opt.path << ":" << lineno
                << ": parse error: " << err << "\n";
      return 1;
    }
    const std::string type = obj.text("type", "");
    if (type == "run") {
      runs.emplace_back();
      runs.back().info = std::move(obj);
      continue;
    }
    if (runs.empty()) runs.emplace_back();  // headerless stream
    if (type == "epoch") runs.back().epochs.push_back(std::move(obj));
    else if (type == "health") runs.back().health.push_back(std::move(obj));
    else if (type == "remap") runs.back().remaps.push_back(std::move(obj));
    else if (type == "noc") runs.back().noc.push_back(std::move(obj));
    // Unknown types are ignored: the stream may grow new record kinds.
  }

  if (runs.empty()) {
    std::cerr << "remapd_report: " << opt.path << ": no records\n";
    return 1;
  }

  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i) std::printf("\n");
    print_run_header(runs[i], i);
    if (opt.epochs) print_epochs(runs[i]);
    if (opt.health) print_health(runs[i], opt);
    if (opt.remaps) print_remaps(runs[i], opt);
    if (opt.noc) print_noc(runs[i], opt);
  }
  return 0;
}
