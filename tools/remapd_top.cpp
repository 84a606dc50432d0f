// Terminal fleet monitor: polls a `remapd_fleet --serve` daemon's /status
// endpoint and redraws a compact fleet / chips / jobs table, top(1)-style.
//
// Usage: remapd_top [--host H] [--port P] [--interval-ms N] [--once]
//                   [--plain]
//   --host H         daemon host (default 127.0.0.1)
//   --port P         daemon port (default 8787)
//   --interval-ms N  poll period (default 1000; 50 to 86400000)
//   --once           print one snapshot and exit (no screen control)
//   --plain          never emit ANSI clear/home (implied by --once)
//
// Exits 0 on a clean snapshot (or when the daemon reports done and --once),
// 1 when the daemon is unreachable. The tool is deliberately self-contained
// (own HTTP GET, the util library's JSON reader) so it links against
// nothing but the util library — it must stay usable against a daemon built
// from any other revision.

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/env.hpp"
#include "util/json.hpp"

namespace {

// ---------------------------------------------------------------------------
// One-shot HTTP GET (the daemon speaks Connection: close, so read-to-EOF
// framing is sufficient).

bool http_get(const std::string& host, const std::string& port,
              const std::string& path, std::string& body, std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
      rc != 0) {
    error = std::string("resolve: ") + ::gai_strerror(rc);
    return false;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    error = "connect to " + host + ":" + port + " failed: " +
            std::strerror(errno);
    return false;
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t hdr_end = raw.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    error = "malformed response (no header terminator)";
    return false;
  }
  const std::string status_line = raw.substr(0, raw.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    error = "daemon answered: " + status_line;
    return false;
  }
  body = raw.substr(hdr_end + 4);
  return true;
}

// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

using remapd::json::Value;

void render(const Value& st) {
  const Value* done = st.find("done");
  std::printf("fleet  step %zu  %s   jobs: %zu submitted, %zu queued, "
              "%zu running, %zu completed, %zu failed, %zu rejected   "
              "migrations: %zu\n",
              static_cast<std::size_t>(st.num("step")),
              done && done->boolean ? "DONE   " : "RUNNING",
              static_cast<std::size_t>(st.num("submitted")),
              static_cast<std::size_t>(st.num("queued")),
              static_cast<std::size_t>(st.num("running")),
              static_cast<std::size_t>(st.num("completed")),
              static_cast<std::size_t>(st.num("failed")),
              static_cast<std::size_t>(st.num("rejected")),
              static_cast<std::size_t>(st.num("migrations")));

  const Value* chips = st.find("chips");
  std::printf("\n%-4s %-10s %-12s %8s %12s %12s %6s\n", "id", "chip", "job",
              "health", "density", "trend/ep", "wear");
  if (chips)
    for (const Value& c : chips->items) {
      const std::string job = c.text("job");
      std::printf("%-4zu %-10s %-12s %8.3f %12.5f %12.5f %6zu\n",
                  static_cast<std::size_t>(c.num("id")),
                  c.text("name").c_str(), job.empty() ? "-" : job.c_str(),
                  c.num("health"), c.num("mean_density"),
                  c.num("trend_per_epoch"),
                  static_cast<std::size_t>(c.num("wear_rounds")));
    }

  const Value* jobs = st.find("jobs");
  std::printf("\n%-12s %-10s %-10s %-10s %9s %6s %5s %9s %8s\n", "job",
              "model", "policy", "state", "epochs", "slices", "migr",
              "test_acc", "trace_id");
  if (jobs)
    for (const Value& j : jobs->items) {
      char epochs[32];
      std::snprintf(epochs, sizeof(epochs), "%zu/%zu",
                    static_cast<std::size_t>(j.num("epochs_completed")),
                    static_cast<std::size_t>(j.num("epochs_total")));
      std::printf("%-12s %-10s %-10s %-10s %9s %6zu %5zu %9.3f %8zu\n",
                  j.text("name").c_str(), j.text("model").c_str(),
                  j.text("policy").c_str(), j.text("state").c_str(), epochs,
                  static_cast<std::size_t>(j.num("slices")),
                  static_cast<std::size_t>(j.num("migrations")),
                  j.num("last_test_accuracy"),
                  static_cast<std::size_t>(j.num("trace_id")));
      const std::string failure = j.text("failure");
      if (!failure.empty())
        std::printf("%-12s   ^ %s\n", "", failure.c_str());
    }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port = "8787";
  long interval_ms = 1000;
  bool once = false;
  bool plain = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "remapd_top: missing value for %s\n",
                     flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--host") host = next();
    else if (flag == "--port") port = next();
    else if (flag == "--interval-ms") {
      const char* v = next();
      try {
        interval_ms = static_cast<long>(
            remapd::parse_uint(flag, v, 86'400'000));  // at most one day
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "remapd_top: %s\n", e.what());
        return 2;
      }
    }
    else if (flag == "--once") once = true;
    else if (flag == "--plain") plain = true;
    else {
      std::fprintf(stderr, "remapd_top: unknown flag %s (see header)\n",
                   flag.c_str());
      return 2;
    }
  }
  if (interval_ms < 50) interval_ms = 50;
  std::signal(SIGINT, on_sigint);

  bool ever_ok = false;
  while (!g_interrupted) {
    std::string body, error;
    if (!http_get(host, port, "/status", body, error)) {
      if (!ever_ok) {
        std::fprintf(stderr, "remapd_top: %s\n", error.c_str());
        return 1;
      }
      // The daemon exiting mid-watch ends the session cleanly.
      std::fprintf(stderr, "remapd_top: daemon gone (%s)\n", error.c_str());
      return 0;
    }
    Value st;
    if (std::string perr; !remapd::json::parse(body, &st, &perr)) {
      std::fprintf(stderr, "remapd_top: bad /status payload: %s\n",
                   perr.c_str());
      return 1;
    }
    ever_ok = true;
    if (!once && !plain) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    std::printf("remapd_top  %s:%s  (poll %ldms)\n\n", host.c_str(),
                port.c_str(), interval_ms);
    render(st);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
