// serve_bench contracts: the `.wl` workload format round-trips and fails
// loudly, the expanded request schedule is a pure function of the spec,
// and a full bench run against an in-process daemon over real loopback TCP
// produces a report whose "deterministic" subtree is byte-identical across
// runs and across engine thread counts, in the closed and the open loop —
// while the run itself completes with zero protocol and transport errors.
// A server that hangs up on every connection costs each request a
// transport error instead of hanging the driver.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/flatjson.hpp"
#include "scenario/spec.hpp"
#include "serve/bench.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace laacad::serve {
namespace {

constexpr const char* kTestWorkload = R"(
name        bench_test
requests    120
rate        0            # closed loop: the fast, clock-independent mode
connections 2
seed        5
knn_k       4
mix         knn=4 coverage=2 load=1 stats=1 health=1
churn       every=30 fail_nodes count=1 pick=random
)";

constexpr const char* kBaseSpec = R"(
name      serve_bench_test
domain    square
side      200
nodes     24
k         2
seed      9
epsilon   0.5
max_rounds 120
battery   2.0e6
grid_resolution 5
)";

// ------------------------------------------------------ .wl round trip ----

TEST(Workload, ParseFormatIdentity) {
  const WorkloadSpec spec = parse_workload_string(kTestWorkload);
  EXPECT_EQ(spec.name, "bench_test");
  EXPECT_EQ(spec.requests, 120);
  EXPECT_EQ(spec.rate, 0.0);
  EXPECT_EQ(spec.connections, 2);
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.knn_k, 4);
  EXPECT_EQ(spec.mix_knn, 4);
  EXPECT_EQ(spec.mix_health, 1);
  ASSERT_EQ(spec.churn.size(), 1u);
  EXPECT_EQ(spec.churn[0].every, 30);
  EXPECT_EQ(spec.churn[0].body, "fail_nodes count=1 pick=random");

  // Canonical echo is a fixed point: format(parse(format(spec))) stabilizes
  // after one round.
  const std::string once = format_workload(spec);
  const std::string twice = format_workload(parse_workload_string(once));
  EXPECT_EQ(once, twice);
}

TEST(Workload, ShippedWorkloadsParse) {
  for (const char* name : {"serve_mix.wl", "serve_smoke.wl"}) {
    const std::string path =
        std::string(LAACAD_SOURCE_DIR) + "/bench/workloads/" + name;
    const WorkloadSpec spec = load_workload_file(path);
    EXPECT_GT(spec.requests, 0) << name;
    EXPECT_FALSE(expand_schedule(spec, 300.0).empty()) << name;
  }
}

TEST(Workload, ParseErrorsNameTheLine) {
  EXPECT_THROW(parse_workload_string("requests nope\n"), std::runtime_error);
  EXPECT_THROW(parse_workload_string("bogus_key 3\n"), std::runtime_error);
  EXPECT_THROW(parse_workload_string("mix knn\n"), std::runtime_error);
  EXPECT_THROW(parse_workload_string("requests 10\nmix knn=0\n"),
               std::runtime_error);  // weights sum to zero
  EXPECT_THROW(parse_workload_string("churn every=10 not_an_event x=1\n"),
               std::runtime_error);  // churn body validated at parse time
  try {
    parse_workload_string("name ok\nrequests -3\n");
    FAIL() << "negative requests accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("requests"), std::string::npos);
  }
}

// ------------------------------------------------- schedule expansion ----

TEST(Workload, ScheduleIsAPureFunctionOfSpec) {
  const WorkloadSpec spec = parse_workload_string(kTestWorkload);
  const auto a = expand_schedule(spec, 200.0);
  const auto b = expand_schedule(spec, 200.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op) << i;
    EXPECT_EQ(a[i].line, b[i].line) << i;
  }

  // 120 queries + one churn event per 30 queries.
  std::map<std::string, int> per_op;
  for (const ScheduledRequest& r : a) ++per_op[r.op];
  int queries = 0;
  for (const auto& [op, n] : per_op)
    if (op != "event") queries += n;
  EXPECT_EQ(queries, 120);
  EXPECT_EQ(per_op["event"], 4);
  // Every weighted verb actually occurs at this size.
  for (const char* op : {"knn", "coverage", "load", "stats", "health"})
    EXPECT_GT(per_op[op], 0) << op;

  // A different seed reshuffles; a different side rescales coordinates.
  WorkloadSpec other = spec;
  other.seed = 6;
  const auto c = expand_schedule(other, 200.0);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
    any_diff = a[i].line != c[i].line;
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------- full TCP run ----

/// One complete bench pass against a fresh in-process daemon at the given
/// engine thread count and offered rate (0 = closed loop); returns the
/// rendered report document.
std::string run_report(int num_threads, double rate) {
  scenario::ScenarioSpec spec = scenario::parse_scenario_string(kBaseSpec);
  spec.num_threads = num_threads;
  const double side = spec.side;

  ServeConfig cfg;
  cfg.spec = std::move(spec);
  CoverageService svc(std::move(cfg));
  svc.start();
  TcpServer server(svc, /*port=*/0);
  std::thread server_thread([&] { server.serve(); });

  WorkloadSpec wl = parse_workload_string(kTestWorkload);
  wl.rate = rate;
  const BenchResult result =
      run_bench(wl, side, "127.0.0.1", server.port(), /*shutdown_after=*/true);
  server_thread.join();

  // A healthy run answers everything, correctly.
  EXPECT_EQ(result.transport_errors, 0u);
  std::uint64_t ok = 0, errors = 0, scheduled = 0;
  for (const BenchVerbStats& v : result.per_op) {
    ok += v.ok;
    errors += v.errors;
    scheduled += v.scheduled;
  }
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(ok, scheduled);
  EXPECT_FALSE(result.final_stats.empty());

  std::ostringstream out;
  write_bench_report(result, out);
  return out.str();
}

TEST(ServeBench, DeterministicSubtreeIsByteStableAcrossRunsAndThreads) {
  const std::string first = run_report(1, 0.0);
  const std::string again = run_report(1, 0.0);
  const std::string threaded = run_report(2, 0.0);

  // Reports are single JSON documents; compare the deterministic subtree
  // byte-for-byte after collapsing to one line (get_raw needs one line).
  const auto deterministic = [](const std::string& report) {
    std::string flat;
    flat.reserve(report.size());
    for (const char c : report)
      if (c != '\n') flat += c;
    // Indented documents put spaces after ':' and between items; the
    // subtree is still a byte-range slice, so identical layout + identical
    // values => identical slice.
    std::string raw;
    EXPECT_TRUE(flatjson::get_raw(flat, "deterministic", &raw)) << report;
    return raw;
  };

  const std::string base = deterministic(first);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(deterministic(again), base);
  EXPECT_EQ(deterministic(threaded), base);

  // And the subtree carries what CI asserts on.
  std::string flat = base;
  double n = -1.0;
  EXPECT_TRUE(flatjson::get_number(flat, "protocol_errors", &n));
  EXPECT_EQ(n, 0.0);
  EXPECT_TRUE(flatjson::get_number(flat, "transport_errors", &n));
  EXPECT_EQ(n, 0.0);
  EXPECT_TRUE(flatjson::get_number(flat, "responses_ok", &n));
  EXPECT_EQ(n, 124.0);  // 120 queries + 4 churn events

  // The timing side of the same report embeds the server-side breakdown.
  // "latency" also names the per-op client blocks, so scope the scan to
  // the "server" subtree first.
  std::string timing_flat;
  for (const char c : first)
    if (c != '\n') timing_flat += c;
  std::string server_raw, raw;
  ASSERT_TRUE(flatjson::get_raw(timing_flat, "server", &server_raw)) << first;
  EXPECT_TRUE(flatjson::get_raw(server_raw, "serve", &raw));
  EXPECT_NE(raw.find("snapshot_age_s"), std::string::npos);
  EXPECT_TRUE(flatjson::get_raw(server_raw, "latency", &raw));
  EXPECT_NE(raw.find("\"queue\""), std::string::npos);
  EXPECT_NE(raw.find("\"serialize\""), std::string::npos);

  // The open loop (request i due at i/rate) issues the same requests, so
  // its deterministic subtree is byte-stable too; only the echoed rate
  // differs from the closed loop's.
  const std::string open = deterministic(run_report(1, 2000.0));
  EXPECT_NE(open, base);
  EXPECT_EQ(deterministic(run_report(1, 2000.0)), open);
  EXPECT_EQ(deterministic(run_report(2, 2000.0)), open);
}

TEST(ServeBench, ServerThatHangsUpCostsEveryRequestATransportError) {
  // A loopback listener that accepts each connection and closes it at once.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread hang_up([listener] {
    for (int fd; (fd = ::accept(listener, nullptr, nullptr)) >= 0;)
      ::close(fd);
  });

  const auto check = [&](double rate) {
    WorkloadSpec wl = parse_workload_string(kTestWorkload);
    wl.rate = rate;
    const BenchResult r = run_bench(wl, 200.0, "127.0.0.1",
                                    ntohs(addr.sin_port),
                                    /*shutdown_after=*/false);
    std::uint64_t scheduled = 0;
    for (const BenchVerbStats& v : r.per_op) scheduled += v.scheduled;
    // Every scheduled request, plus the control epilogue's drain and stats.
    EXPECT_EQ(r.transport_errors, scheduled + 2) << "rate " << rate;
    EXPECT_EQ(r.received, 0u) << "rate " << rate;
    EXPECT_TRUE(r.final_stats.empty()) << "rate " << rate;
  };
  // A throw must not skip the join below.
  EXPECT_NO_THROW(check(0.0));
  EXPECT_NO_THROW(check(2000.0));
  ::shutdown(listener, SHUT_RDWR);  // wakes the blocked accept
  hang_up.join();
  ::close(listener);
}

}  // namespace
}  // namespace laacad::serve
