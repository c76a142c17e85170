// The shared main of every google-benchmark binary in bench/. It stamps
// the run context with the compiler and git commit (provenance.h), so
// `--benchmark_out=<file> --benchmark_out_format=json` writes a result
// file that names the code that produced it, and it fails a run whose
// --benchmark_filter matches nothing.

#include <benchmark/benchmark.h>

#include "provenance.h"

int main(int argc, char** argv) {
  benchmark::AddCustomContext("compiler", dbpl::bench::kCompiler);
  benchmark::AddCustomContext("git_commit", DBPL_BENCH_GIT_COMMIT);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ran == 0 ? 1 : 0;
}
