// psd_bench: the psd benchmark's native half.
//
//   psd_bench load    ...  drive a psd_serve socket (loadgen.cpp)
//   psd_bench replay  ...  replay a serve request stream (replay.cpp)
//   psd_bench sweep   ...  serial sweep pass (sweep_pass.cpp)
//
// perfbench/run.py generates the inputs, runs these and reads their output.
#include <cstdio>
#include <exception>
#include <string>

namespace psdbench {
int run_load(int argc, char** argv);
int run_replay(int argc, char** argv);
int run_sweep_pass(int argc, char** argv);
}  // namespace psdbench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "load") return psdbench::run_load(argc - 1, argv + 1);
    if (cmd == "replay") return psdbench::run_replay(argc - 1, argv + 1);
    if (cmd == "sweep") return psdbench::run_sweep_pass(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psd_bench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: psd_bench load|replay|sweep [options]\n");
  return 2;
}
