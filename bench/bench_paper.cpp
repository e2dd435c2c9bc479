// Reproduces every table and figure of the paper's evaluation (§4-§7) in
// paper order over one shared paper-scale world, then runs the
// google-benchmark timings of the kernels that computed them
// (--benchmark_filter selects which).
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "bench/paper.h"

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  sm::bench::report_section4();
  sm::bench::report_section5();
  sm::bench::report_section6();
  sm::bench::report_section7();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
