// perfbench_harness — the measuring half of the repository benchmark
// (perfbench/run.py is the other half: it builds, starts the daemon,
// applies the correctness gates and reduces these JSON lines to metrics).
//
//   perfbench_harness describe
//   perfbench_harness batch --scn PATH --solve engine|scenario
//                           --seeds S1,S2,... [--threads N] [--trace]
//                           [--serve-scn PATH --serve-wl PATH]
//   perfbench_harness loadgen --port P --wl PATH --side M --rate R
//                             --requests N --seed S
//
// Every command except `describe` refuses to run from a build that is not
// Release or that carries sanitizers: numbers from such a build are not a
// baseline anyone should compare against.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/harness.hpp"

namespace {

using namespace perfbench;

bool measurable_build() {
  bool sanitized = std::string(PERFBENCH_SANITIZE).size() > 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  return std::string(PERFBENCH_BUILD_TYPE) == "Release" && !sanitized;
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item = text.substr(pos, comma - pos);
    seeds.push_back(std::stoull(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (seeds.empty()) throw std::runtime_error("--seeds needs at least one seed");
  return seeds;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness describe\n"
               "       perfbench_harness batch --scn PATH --solve "
               "engine|scenario --seeds S1,S2,...\n"
               "                         [--threads N] [--trace] "
               "[--serve-scn PATH --serve-wl PATH]\n"
               "       perfbench_harness loadgen --port P --wl PATH --side M "
               "--rate R --requests N --seed S\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "describe") {
    JsonLine d;
    d.str("build_type", PERFBENCH_BUILD_TYPE)
        .str("sanitize", PERFBENCH_SANITIZE)
        .str("compiler", PERFBENCH_COMPILER)
        .integer("hardware_threads",
                 static_cast<long long>(std::thread::hardware_concurrency()))
        .boolean("measurable", measurable_build());
    std::printf("%s\n", d.text().c_str());
    return 0;
  }
  if (!measurable_build()) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to measure a %s build%s; "
                 "rebuild with CMAKE_BUILD_TYPE=Release and no "
                 "LAACAD_SANITIZE\n",
                 PERFBENCH_BUILD_TYPE,
                 std::string(PERFBENCH_SANITIZE).empty() ? "" : " with sanitizers");
    return 3;
  }

  BatchOptions batch;
  LoadOptions load;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--scn") batch.scn_path = next();
      else if (arg == "--solve") batch.solve = next();
      else if (arg == "--seeds") batch.seeds = parse_seeds(next());
      else if (arg == "--threads") batch.threads = std::stoi(next());
      else if (arg == "--trace") batch.trace = true;
      else if (arg == "--serve-scn") batch.serve_scn = next();
      else if (arg == "--serve-wl") batch.serve_wl = next();
      else if (arg == "--port") load.port = std::stoi(next());
      else if (arg == "--wl") load.wl_path = next();
      else if (arg == "--side") load.side = std::stod(next());
      else if (arg == "--rate") load.rate = std::stod(next());
      else if (arg == "--requests") load.requests = std::stoi(next());
      else if (arg == "--seed") load.seed = std::stoull(next());
      else throw std::runtime_error("unknown argument " + arg);
    }
    if (cmd == "batch") {
      if (batch.scn_path.empty() || batch.seeds.empty())
        throw std::runtime_error("batch needs --scn and --seeds");
      if (batch.trace && (batch.serve_scn.empty() || batch.serve_wl.empty()))
        throw std::runtime_error("batch --trace needs --serve-scn and --serve-wl");
      return run_batch(batch);
    }
    if (cmd == "loadgen") {
      if (load.port <= 0 || load.wl_path.empty() || load.requests <= 0)
        throw std::runtime_error("loadgen needs --port, --wl and --requests");
      return run_loadgen(load);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
  return usage();
}
