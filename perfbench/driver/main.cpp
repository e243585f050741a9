// perfbench_driver — the benchmark's measuring program. perfbench/run.py
// builds it and calls it; see perfbench/README.md.
//
//   perfbench_driver oracle    --workload W --seed N --scale S --oracle FILE
//   perfbench_driver run       --workload W --seed N --scale S --seconds T
//                              --trace 0|1 --oracle FILE --work DIR
//                              [--source-hash H]
//   perfbench_driver storeflip --workload W --seed N --scale S
//                              --oracle FILE --work DIR
//
// Exit status: 0 when the mode completed (a run that found wrong cells
// still exits 0 and reports them), 2 on bad arguments, 1 on any other
// failure.
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "modes.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2 || (argc - 2) % 2 != 0) {
    std::cerr << "usage: perfbench_driver oracle|run|storeflip --key value ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench_driver: expected --key, got " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };

  try {
    RunConfig cfg;
    cfg.scale = get("scale", "paper");
    if (cfg.scale != "paper" && cfg.scale != "tiny") {
      std::cerr << "perfbench_driver: --scale must be paper or tiny\n";
      return 2;
    }
    cfg.workload = make_workload(get("workload", ""),
                                 std::stoull(get("seed", "1")),
                                 cfg.scale == "tiny");
    cfg.seconds = std::stod(get("seconds", "10"));
    cfg.oracle_path = get("oracle", "");
    cfg.work_dir = get("work", ".");
    cfg.source_hash = get("source-hash", "unknown");
    std::filesystem::create_directories(cfg.work_dir);

    if (mode == "oracle") {
      write_oracle(cfg.oracle_path,
                   compute_oracle(cfg.workload.study, bench_threads()));
      return 0;
    }
    if (mode == "run") {
      return get("trace", "0") == "1" ? run_traced(cfg) : run_measure(cfg);
    }
    if (mode == "storeflip") return run_storeflip(cfg);
    std::cerr << "perfbench_driver: unknown mode " << mode << "\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
