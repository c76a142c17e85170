#ifndef DBPL_BENCH_PROVENANCE_H_
#define DBPL_BENCH_PROVENANCE_H_

#include <sstream>
#include <string>
#include <thread>

// Stamped by bench/CMakeLists.txt from `git rev-parse --short HEAD`;
// "unknown" outside a git checkout (e.g. a source tarball).
#if !defined(DBPL_BENCH_GIT_COMMIT)
#define DBPL_BENCH_GIT_COMMIT "unknown"
#endif

namespace dbpl::bench {

#if defined(__clang__)
inline constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#else
inline constexpr const char* kCompiler = "unknown";
#endif

/// The provenance object BENCH_SERVE.json leads with, so a result file
/// is never divorced from the machine, toolchain and commit that
/// produced it (EXPERIMENTS.md: numbers without provenance are
/// anecdotes). The google-benchmark binaries put kCompiler and the
/// commit into Google Benchmark's own run context (bench_main.cc).
inline std::string ProvenanceJson() {
  std::ostringstream out;
  out << "{\"host_cores\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << kCompiler << "\", \"git_commit\": \""
      << DBPL_BENCH_GIT_COMMIT << "\"}";
  return out.str();
}

}  // namespace dbpl::bench

#endif  // DBPL_BENCH_PROVENANCE_H_
