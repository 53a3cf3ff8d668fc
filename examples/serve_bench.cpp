// serve_bench — open-loop load generator for laacad_serve.
//
//   serve_bench [--wl PATH] [--out PATH] [--scn PATH] [--threads N]
//               [--connect HOST:PORT] [--requests N] [--rate R]
//               [--connections C] [--seed S] [--quiet]
//
// Replays a declarative `.wl` workload (bench/workloads/*.wl; default: an
// embedded mirror of serve_mix.wl) over real loopback TCP and writes
// BENCH_serve_latency.json: per-verb client-side percentiles measured
// coordinated-omission-safely from *scheduled* send times, plus the
// server's own queue/query/serialize breakdown pulled from its final
// `stats` response.
//
// By default the bench owns the server: it starts an in-process
// CoverageService + TcpServer on an ephemeral port and shuts it down when
// done — one command, no orchestration. With --connect it drives an
// externally spawned daemon instead (spawn `laacad_serve --port 0`, read
// the bound port off its stderr); the workload's query coordinates then
// still come from the --scn side length, so point the bench at the same
// spec the daemon loaded.
//
// Exit status: 0 on a clean run, 1 if any protocol or transport errors
// were tallied (CI treats a nonzero error count as failure), 2 on usage
// or setup problems.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/specparse.hpp"
#include "scenario/spec.hpp"
#include "serve/bench.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {

using namespace laacad;

// Mirror of scenarios/serve_base.scn (same as laacad_serve's default).
constexpr const char* kDefaultSpec = R"(
name      serve_base
domain    square
side      300
nodes     40
k         2
seed      11
epsilon   0.5
max_rounds 200
battery   2.0e6
grid_resolution 5
)";

// Mirror of bench/workloads/serve_mix.wl.
constexpr const char* kDefaultWorkload = R"(
name        serve_mix
requests    2000
rate        500
connections 2
seed        7
knn_k       3
mix         knn=6 coverage=2 load=1 stats=1
churn       every=250 fail_nodes count=2 pick=random
churn       every=600 add_nodes count=3 deploy=uniform
)";

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--wl PATH] [--out PATH] [--scn PATH] [--threads N]\n"
      "          [--connect HOST:PORT] [--requests N] [--rate R]\n"
      "          [--connections C] [--seed S] [--quiet]\n"
      "  --wl PATH         workload file (default: embedded serve_mix)\n"
      "  --out PATH        report path (default: BENCH_serve_latency.json)\n"
      "  --scn PATH        base spec for the in-process server, and the\n"
      "                    side length query coordinates draw from\n"
      "  --threads N       engine threads for the in-process server\n"
      "  --connect H:P     drive an already-running daemon instead of\n"
      "                    starting one (no shutdown is sent)\n"
      "  --requests/--rate/--connections/--seed\n"
      "                    override the corresponding workload fields\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string wl_path, out_path = "BENCH_serve_latency.json", scn_path;
  std::string connect;
  int threads = -1;
  std::optional<long long> requests, connections;
  std::optional<std::uint64_t> seed;
  std::optional<double> rate;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_bench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--wl") wl_path = next();
    else if (arg == "--out") out_path = next();
    else if (arg == "--scn") scn_path = next();
    else if (arg == "--connect") connect = next();
    else if (arg == "--threads") {
      const auto value = specparse::parse_flag_int(next(), 0, INT_MAX);
      if (!value) {
        std::fprintf(stderr,
                     "serve_bench: --threads expects a non-negative integer\n");
        return 2;
      }
      threads = static_cast<int>(*value);
    }
    else if (arg == "--requests" || arg == "--connections") {
      auto& dst = arg == "--requests" ? requests : connections;
      dst = specparse::parse_flag_int(next(), 0, INT_MAX);
      if (!dst) {
        std::fprintf(stderr,
                     "serve_bench: %s expects a non-negative integer\n",
                     arg.c_str());
        return 2;
      }
    }
    else if (arg == "--rate") {
      rate = specparse::parse_flag_double(next());
      if (!rate || *rate < 0.0) {
        std::fprintf(stderr,
                     "serve_bench: --rate expects a finite number >= 0\n");
        return 2;
      }
    }
    else if (arg == "--seed") {
      seed = specparse::parse_flag_uint64(next());
      if (!seed) {
        std::fprintf(
            stderr, "serve_bench: --seed expects an unsigned 64-bit integer\n");
        return 2;
      }
    }
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "serve_bench: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    serve::WorkloadSpec wl =
        wl_path.empty() ? serve::parse_workload_string(kDefaultWorkload)
                        : serve::load_workload_file(wl_path);
    if (requests) wl.requests = static_cast<int>(*requests);
    if (rate) wl.rate = *rate;
    if (connections) wl.connections = static_cast<int>(*connections);
    if (seed) wl.seed = *seed;
    // Refuse bad overrides before an in-process server thread exists.
    serve::check_workload(wl);

    scenario::ScenarioSpec spec =
        scn_path.empty() ? scenario::parse_scenario_string(kDefaultSpec)
                         : scenario::load_scenario_file(scn_path);
    if (threads >= 0) spec.num_threads = threads;

    serve::BenchResult result;
    if (connect.empty()) {
      serve::ServeConfig cfg;
      cfg.spec = spec;
      serve::CoverageService svc(std::move(cfg));
      svc.start();
      serve::TcpServer server(svc, /*port=*/0);
      std::thread server_thread([&] { server.serve(); });
      result = serve::run_bench(wl, spec.side, "127.0.0.1", server.port(),
                                /*shutdown_after=*/true);
      server_thread.join();
    } else {
      const auto colon = connect.rfind(':');
      if (colon == std::string::npos)
        throw std::runtime_error("--connect needs HOST:PORT");
      const std::string host = connect.substr(0, colon);
      const auto port =
          specparse::parse_flag_int(connect.c_str() + colon + 1, 0, 65535);
      if (!port)
        throw std::runtime_error("--connect port must be in [0, 65535]");
      result = serve::run_bench(wl, spec.side, host, static_cast<int>(*port),
                                /*shutdown_after=*/false);
    }

    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + out_path);
    serve::write_bench_report(result, out);

    std::uint64_t errors = result.transport_errors;
    for (const serve::BenchVerbStats& v : result.per_op) errors += v.errors;
    if (!quiet) {
      const serve::BenchVerbStats& knn = result.per_op[0];
      std::fprintf(stderr,
                   "serve_bench: %s -> %s\n"
                   "  %llu/%llu responses, %.0f req/s achieved (%s), "
                   "%llu errors\n"
                   "  knn p50/p99: %.0f/%.0f us\n",
                   wl.name.c_str(), out_path.c_str(),
                   static_cast<unsigned long long>(result.received),
                   static_cast<unsigned long long>(result.sent),
                   result.achieved_rate_per_s,
                   wl.rate > 0.0 ? "open loop" : "closed loop",
                   static_cast<unsigned long long>(errors),
                   static_cast<double>(knn.latency.value_at(0.50)) / 1e3,
                   static_cast<double>(knn.latency.value_at(0.99)) / 1e3);
    }
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
