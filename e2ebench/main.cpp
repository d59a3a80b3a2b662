//===- e2ebench/main.cpp - End-to-end rewrite-request benchmark -----------===//
///
/// \file
/// Usage:
///
///   e2ebench --workload hf_fixpoint|daemon_mixed|auto_search --seed N
///            --seconds S --trace 0|1
///
/// Prints informational JSON lines, then, as the last line of stdout, one
/// JSON object {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Exits 0 when every check passed, 1 when one failed, 2 on a
/// usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "hf_fixpoint|daemon_mixed|auto_search --seed N --seconds S "
               "--trace 0|1\n",
               Msg);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  e2e::RunOptions O;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, O.Seed))
        return usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseUnsigned(V, N) || N == 0 || N > 600)
        return usage("--seconds takes an integer in [1, 600]");
      O.Seconds = double(N);
    } else if (A == "--trace") {
      if (!parseUnsigned(V, N) || N > 1)
        return usage("--trace takes 0 or 1");
      O.Trace = N == 1;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !e2e::knownWorkload(O.Workload))
    return usage("--workload must name a known workload");
  if (!HaveSeed)
    return usage("--seed is required");

  e2e::RunResult R = e2e::runWorkload(O);
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "e2ebench: check failed: %s\n", P.c_str());
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const e2e::Metric &M = R.Metrics[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return R.Correct ? 0 : 1;
}
