// Observability surface: HTTP request parsing and routing, the embedded
// server over real sockets, Prometheus exposition (name sanitization
// round-trip), migration flow events in the trace, idempotent append-mode
// flushing, and the headline serving-determinism guarantee — a fleet run
// hammered by a live /metrics + /status poller produces byte-identical
// per-epoch CSV to the same run unserved, at any thread count.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/chip.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/status.hpp"
#include "obs/http_server.hpp"
#include "telemetry/telemetry.hpp"
#include "json_prefix.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"

namespace remapd {
namespace {

// Minimal raw client shared by the socket and serving-determinism tests:
// send `request` verbatim to 127.0.0.1:`port`, read to EOF (the server
// closes every connection).
std::string raw_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string http_get_raw(std::uint16_t port, const std::string& path) {
  return raw_exchange(port, "GET " + path +
                                " HTTP/1.1\r\nHost: t\r\n"
                                "Connection: close\r\n\r\n");
}

}  // namespace

namespace obs {
namespace {

// ------------------------------------------------------- request parsing

TEST(HttpParse, ParsesRequestLineQueryAndHeaders) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(parse_http_request(
      "GET /status?verbose=1 HTTP/1.1\r\nHost: localhost:8787\r\n"
      "X-Custom:  padded value \r\n",
      req, err))
      << err;
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/status?verbose=1");
  EXPECT_EQ(req.path, "/status");
  EXPECT_EQ(req.query, "verbose=1");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.header("host"), "localhost:8787");
  EXPECT_EQ(req.header("x-custom"), "padded value");
  EXPECT_EQ(req.header("absent"), "");
}

TEST(HttpParse, HeaderNamesAreCaseInsensitive) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(parse_http_request(
      "GET / HTTP/1.0\r\nCONTENT-Type: text/plain\r\n", req, err));
  EXPECT_EQ(req.header("content-type"), "text/plain");
}

TEST(HttpParse, AcceptsBareLfLineEndings) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(parse_http_request("GET /x HTTP/1.1\nHost: h\n", req, err));
  EXPECT_EQ(req.path, "/x");
  EXPECT_EQ(req.header("host"), "h");
}

TEST(HttpParse, RejectsMalformedInput) {
  HttpRequest req;
  std::string err;
  EXPECT_FALSE(parse_http_request("", req, err));
  EXPECT_FALSE(parse_http_request("GET\r\n", req, err));
  EXPECT_FALSE(parse_http_request("GET /only-two-tokens\r\n", req, err));
  EXPECT_FALSE(parse_http_request(
      "GET / HTTP/1.1\r\nno-colon-header\r\n", req, err));
  EXPECT_FALSE(err.empty());
}

TEST(HttpParse, RenderedResponseHasFramingHeaders) {
  HttpResponse r = HttpResponse::text("hello\n");
  const std::string wire = render_http_response(r);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\nhello\n"));
}

// ------------------------------------------------------------- dispatch

HttpRequest make_request(const std::string& method, const std::string& path) {
  HttpRequest req;
  req.method = method;
  req.target = path;
  req.path = path;
  req.version = "HTTP/1.1";
  return req;
}

TEST(HttpDispatch, RoutesKnownPathAnd404sUnknown) {
  HttpServer server;
  server.route("/ping", [](const HttpRequest&) {
    return HttpResponse::text("pong\n");
  });
  EXPECT_EQ(server.dispatch(make_request("GET", "/ping")).body, "pong\n");
  EXPECT_EQ(server.dispatch(make_request("GET", "/nope")).status, 404);
}

TEST(HttpDispatch, NonGetOnKnownPathIs405AndHandlerThrowIs500) {
  HttpServer server;
  server.route("/ping", [](const HttpRequest&) {
    return HttpResponse::text("pong\n");
  });
  server.route("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  const HttpResponse post = server.dispatch(make_request("POST", "/ping"));
  EXPECT_EQ(post.status, 405);
  EXPECT_NE(render_http_response(post).find("Allow: GET\r\n"),
            std::string::npos);
  const HttpResponse boom = server.dispatch(make_request("GET", "/boom"));
  EXPECT_EQ(boom.status, 500);
  EXPECT_NE(boom.body.find("handler exploded"), std::string::npos);
}

// ------------------------------------------------------- socket round-trip

TEST(HttpServerSocket, ServesRoutesOverRealSockets) {
  HttpServer server;
  server.route("/healthz", [](const HttpRequest&) {
    return HttpResponse::text("ok\n");
  });
  server.start(0);  // kernel-assigned port
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string ok = http_get_raw(server.port(), "/healthz");
  EXPECT_NE(ok.find(" 200 "), std::string::npos);
  EXPECT_TRUE(ok.ends_with("ok\n"));

  EXPECT_NE(http_get_raw(server.port(), "/missing").find(" 404 "),
            std::string::npos);
  EXPECT_NE(raw_exchange(server.port(),
                         "POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .find(" 405 "),
            std::string::npos);
  EXPECT_NE(raw_exchange(server.port(), "complete garbage\r\n\r\n")
                .find(" 400 "),
            std::string::npos);

  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

}  // namespace
}  // namespace obs

// ------------------------------------------------------------ prometheus

namespace telemetry {
namespace {

TEST(Prometheus, MetricKeySplitsJobQualifiedNames) {
  EXPECT_EQ(metric_key("gemm.calls").metric, "gemm.calls");
  EXPECT_EQ(metric_key("gemm.calls").job, "");
  const MetricKey k = metric_key("job:alpha/fleet.slices");
  EXPECT_EQ(k.metric, "fleet.slices");
  EXPECT_EQ(k.job, "alpha");
  // Job names are user-controlled and may contain '/': the metric segment
  // is everything after the LAST slash.
  const MetricKey nested = metric_key("job:team/alpha/fleet.slices");
  EXPECT_EQ(nested.metric, "fleet.slices");
  EXPECT_EQ(nested.job, "team/alpha");
}

TEST(Prometheus, NameSanitizationAndLabelEscaping) {
  EXPECT_EQ(prometheus_metric_name("fleet.slice_ns"),
            "remapd_fleet_slice_ns");
  EXPECT_EQ(prometheus_metric_name("weird name:x"), "remapd_weird_name_x");
  EXPECT_EQ(prometheus_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Prometheus, RoundTripsJobQualifiedCounterIntoLabelledFamily) {
  RegistrySnapshot snap;
  snap.counters.emplace_back("job:alpha/fleet.slices", 7);
  snap.counters.emplace_back("job:beta/fleet.slices", 9);
  snap.counters.emplace_back("fleet.migrations", 2);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE remapd_fleet_slices counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("remapd_fleet_slices{job=\"alpha\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("remapd_fleet_slices{job=\"beta\"} 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("remapd_fleet_migrations 2\n"), std::string::npos);
  // Exactly one TYPE line for the shared family.
  EXPECT_EQ(text.find("# TYPE remapd_fleet_slices"),
            text.rfind("# TYPE remapd_fleet_slices"));
}

TEST(Prometheus, HistogramsRenderAsSummaries) {
  RegistrySnapshot snap;
  HistogramStats h;
  h.count = 4;
  h.sum = 100;
  h.min = 10;
  h.max = 40;
  h.p50 = 20;
  h.p95 = 40;
  h.p99 = 40;
  snap.histograms.emplace_back("job:alpha/fleet.slice_ns", h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE remapd_fleet_slice_ns summary\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("remapd_fleet_slice_ns{job=\"alpha\",quantile=\"0.5\"} 20\n"),
      std::string::npos);
  EXPECT_NE(text.find("remapd_fleet_slice_ns_count{job=\"alpha\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("remapd_fleet_slice_ns_sum{job=\"alpha\"} 100\n"),
            std::string::npos);
}

TEST(Prometheus, EveryLineIsValidExposition) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("gemm.calls").add(3);
  reg.gauge("noc.util").set(0.5);
  reg.histogram("fleet.slice_ns").record(1000);
  {
    JobLabelScope scope("job:my job/with strange+chars", 1);
    reg.counter("fleet.slices").add();
  }
  const std::string text = prometheus_text();
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE remapd_", 0), 0u) << line;
      continue;
    }
    // name{labels} value  |  name value
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric value in: " << line;
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos) {
      EXPECT_TRUE(series.ends_with('}')) << line;
      series = series.substr(0, brace);
    }
    EXPECT_EQ(series.rfind("remapd_", 0), 0u) << line;
    for (const char c : series)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_')
          << "illegal char '" << c << "' in: " << line;
  }
  reg.reset();
}

// ------------------------------------------------- idempotent append flush

TEST(TelemetryFlush, AppendModeFlushLandsExactlyOnce) {
  const std::string path = "test_http_flush.summary.txt";
  std::remove(path.c_str());
  reset_all();
  set_enabled(true);
  Registry::instance().counter("flush.probe").add(42);
  ::setenv("REMAPD_METRICS", path.c_str(), 1);
  set_resume_append(true);

  // Daemon shutdown can flush up to three times (manual, atexit,
  // terminate handler); append mode must land one copy.
  flush_to_env_paths();
  flush_to_env_paths();
  flush_to_env_paths();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  const std::size_t first = text.find("flush.probe");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("flush.probe", first + 1), std::string::npos)
      << "append-mode flush wrote more than one copy";

  set_resume_append(false);
  ::unsetenv("REMAPD_METRICS");
  set_enabled(false);
  reset_all();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace telemetry

// ---------------------------------------------- fleet integration surface

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

JobSpec tiny_job(const std::string& name, std::uint64_t seed = 7,
                 std::size_t epochs = 2) {
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

/// Render the per-job per-epoch history exactly the way the remapd_fleet
/// CLI writes its --csv output (tools/remapd_fleet.cpp).
std::string history_csv(const Scheduler& scheduler) {
  CsvWriter csv;
  csv.header({"job", "model", "policy", "epoch", "loss", "train_acc",
              "test_acc", "remaps", "faults", "new_faults"});
  for (const FleetJob& job : scheduler.jobs()) {
    if (!job.trainer) continue;
    for (const EpochRecord& e : job.trainer->result().history)
      csv.row(job.spec.name, job.spec.model, job.spec.policy, e.epoch,
              e.train_loss, e.train_accuracy, e.test_accuracy, e.remaps,
              e.total_faults, e.new_faults);
  }
  return csv.dump();
}

std::string run_fleet_csv(bool served, std::size_t threads) {
  FleetThreadGuard guard(threads);
  ChipSpec base;
  base.name = "chip";
  ChipPool pool = ChipPool::homogeneous(3, base);
  SchedulerConfig cfg;
  cfg.force_migrate_at_epoch = 1;  // exercise migration while serving

  StatusBoard board;
  obs::HttpServer server;
  std::thread poller;
  std::atomic<bool> poll_stop{false};
  if (served) {
    cfg.status_board = &board;
    server.route("/metrics", [](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = telemetry::kPrometheusContentType;
      r.body = telemetry::prometheus_text();
      return r;
    });
    server.route("/status", [&board](const obs::HttpRequest&) {
      return obs::HttpResponse::json(board.read().json());
    });
    server.start(0);
  }

  Scheduler scheduler(pool, cfg);
  scheduler.submit(tiny_job("alpha", 7));
  scheduler.submit(tiny_job("beta", 8));

  if (served) {
    // Hammer the endpoints for the whole run from a second thread — the
    // determinism contract says this cannot change a single CSV byte.
    const std::uint16_t port = server.port();
    poller = std::thread([port, &poll_stop] {
      while (!poll_stop.load()) {
        const std::string m = http_get_raw(port, "/metrics");
        const std::string s = http_get_raw(port, "/status");
        EXPECT_NE(m.find(" 200 "), std::string::npos);
        EXPECT_NE(s.find(" 200 "), std::string::npos);
      }
    });
  }

  (void)scheduler.run();

  if (served) {
    // The final published snapshot must be the done-marker.
    const FleetStatus last = board.read();
    EXPECT_TRUE(last.done);
    EXPECT_EQ(last.completed, 2u);
    poll_stop.store(true);
    poller.join();
    server.stop();
  }
  return history_csv(scheduler);
}

TEST(FleetServing, PollingNeverChangesCsvBytes) {
  telemetry::reset_all();
  telemetry::set_enabled(true);  // serving implies metrics collection
  const std::string reference = run_fleet_csv(/*served=*/false, 1);
  ASSERT_FALSE(reference.empty());

  telemetry::reset_all();
  EXPECT_EQ(run_fleet_csv(/*served=*/true, 1), reference)
      << "serving perturbed the run at REMAPD_THREADS=1";

  telemetry::reset_all();
  EXPECT_EQ(run_fleet_csv(/*served=*/true, 4), reference)
      << "serving perturbed the run at REMAPD_THREADS=4";

  telemetry::set_enabled(false);
  telemetry::reset_all();
}

TEST(FleetServing, StatusSnapshotCarriesChipAndJobRows) {
  FleetThreadGuard guard(1);
  telemetry::reset_all();
  ChipSpec base;
  base.name = "chip";
  ChipPool pool = ChipPool::homogeneous(2, base);
  StatusBoard board;
  SchedulerConfig cfg;
  cfg.status_board = &board;
  Scheduler scheduler(pool, cfg);
  scheduler.submit(tiny_job("solo", 7, /*epochs=*/1));
  (void)scheduler.run();

  const FleetStatus st = board.read();
  EXPECT_TRUE(st.done);
  ASSERT_EQ(st.chips.size(), 2u);
  ASSERT_EQ(st.jobs.size(), 1u);
  EXPECT_EQ(st.jobs[0].name, "solo");
  EXPECT_EQ(st.jobs[0].state, "completed");
  EXPECT_EQ(st.jobs[0].trace_id, 1u);
  EXPECT_EQ(st.jobs[0].epochs_completed, 1u);
  EXPECT_GT(st.jobs[0].last_test_accuracy, 0.0);
  EXPECT_GE(board.version(), 2u);  // pre-run publish + per-step publishes

  expect_only_whole_parses("status", st.json());
  json::Value doc;
  ASSERT_TRUE(json::parse(st.json(), &doc));
  EXPECT_EQ(doc.num("step", -1), static_cast<double>(st.step));
  ASSERT_NE(doc.find("done"), nullptr);
  EXPECT_TRUE(doc.find("done")->boolean);
  const json::Value* chips = doc.find("chips");
  const json::Value* jobs = doc.find("jobs");
  ASSERT_TRUE(chips && jobs);
  ASSERT_EQ(chips->items.size(), 2u);
  ASSERT_EQ(jobs->items.size(), 1u);
  const json::Value* health = chips->items[0].find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->str, json::number(st.chips[0].health));
  EXPECT_EQ(jobs->items[0].num("trace_id"), 1.0);
  EXPECT_EQ(jobs->items[0].num("epochs_completed"), 1.0);
}

TEST(FleetServing, StopRequestEndsRunAtStepBoundary) {
  FleetThreadGuard guard(1);
  std::atomic<bool> stop{true};  // already set: run() must do zero steps
  ChipSpec base;
  base.name = "chip";
  ChipPool pool = ChipPool::homogeneous(1, base);
  SchedulerConfig cfg;
  cfg.stop_requested = &stop;
  Scheduler scheduler(pool, cfg);
  scheduler.submit(tiny_job("interrupted"));
  const FleetSummary summary = scheduler.run();
  EXPECT_EQ(summary.steps, 0u);
  EXPECT_EQ(summary.completed, 0u);
}

TEST(FleetServing, MigrationEmitsLinkedFlowEventsUnderJobTraceId) {
  FleetThreadGuard guard(1);
  telemetry::reset_all();
  telemetry::set_enabled(true);

  ChipSpec base;
  base.name = "chip";
  ChipPool pool = ChipPool::homogeneous(2, base);
  SchedulerConfig cfg;
  cfg.force_migrate_at_epoch = 1;
  Scheduler scheduler(pool, cfg);
  scheduler.submit(tiny_job("mover", 7));
  (void)scheduler.run();
  ASSERT_EQ(scheduler.migrations().size(), 1u);

  const std::vector<telemetry::TraceEvent> events =
      telemetry::TraceBuffer::instance().snapshot();
  const telemetry::TraceEvent* start = nullptr;
  const telemetry::TraceEvent* finish = nullptr;
  bool saw_save_span = false;
  bool saw_restore_span = false;
  for (const telemetry::TraceEvent& ev : events) {
    if (ev.ph == 's' && ev.name == "migrate") start = &ev;
    if (ev.ph == 'f' && ev.name == "migrate") finish = &ev;
    if (ev.ph == 'X' && ev.name == "fleet.migrate.save") saw_save_span = true;
    if (ev.ph == 'X' && ev.name == "fleet.migrate.restore")
      saw_restore_span = true;
  }
  ASSERT_NE(start, nullptr) << "no flow start event";
  ASSERT_NE(finish, nullptr) << "no flow finish event";
  EXPECT_TRUE(saw_save_span);
  EXPECT_TRUE(saw_restore_span);

  // Both halves share one arrow id, derived from the job's trace id.
  EXPECT_EQ(start->flow_id, finish->flow_id);
  const std::uint64_t trace_id = scheduler.jobs()[0].trace_id;
  EXPECT_EQ(trace_id, 1u);
  EXPECT_EQ(start->flow_id >> 16, trace_id);
  // Every migration event is tagged with the job and its trace id.
  for (const telemetry::TraceEvent* ev : {start, finish}) {
    EXPECT_NE(ev->args_json.find("\"job\":\"mover\""), std::string::npos)
        << ev->args_json;
    EXPECT_NE(ev->args_json.find("\"trace_id\":1"), std::string::npos)
        << ev->args_json;
  }

  // The exported Chrome trace draws the arrow: 's' and 'f' records with a
  // shared id, the finish bound to its enclosing slice.
  const std::string chrome = telemetry::chrome_trace_json();
  EXPECT_NE(chrome.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(chrome.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(chrome.find("\"id\":" + std::to_string(start->flow_id)),
            std::string::npos);

  telemetry::set_enabled(false);
  telemetry::reset_all();
}

}  // namespace
}  // namespace fleet
}  // namespace remapd
