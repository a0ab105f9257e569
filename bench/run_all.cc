// The whole experiment suite: every figure, ablation, and extra, one
// command. `run_all --quick --jobs 4 --out bench_quick.jsonl` is the CI
// profile; positional arguments pick experiments: an exact name selects
// just that one (`run_all fig_fabric`), anything else every name
// containing it (`run_all fig09 ablation`). See docs/HARNESS.md.
#include "bench/experiments.h"
#include "harness/cli.h"

int main(int argc, char** argv) {
  return orbit::harness::HarnessMain(orbit::benchexp::AllExperiments(), argc,
                                     argv);
}
