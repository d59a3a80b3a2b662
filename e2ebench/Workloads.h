//===- e2ebench/Workloads.h - Benchmark workloads ---------------*- C++ -*-===//
///
/// \file
/// The three closed-loop workloads and what one run of them reports:
///
///  - hf_fixpoint: one client, Server::handle, warm plan cache, the whole
///    HF suite with greedy search. The rewrite layer does the work.
///  - daemon_mixed: two clients on their own socketpair connections to
///    Server::serve; small zoo graphs, three hot rule sets plus a seeded
///    share of fresh ones. Protocol, queue, PlanCache and the compile
///    path do the work.
///  - auto_search: one client, Server::handle with certificate-directed
///    search (wire value 3) on the small HF models. The confluence
///    analysis and the beam search do the work.
///
/// An untraced run times whole requests in 0.5 s load segments, reads a
/// host clock (a fixed kernel) between segments, and yields the
/// end-to-end metrics at the reference host speed. A traced run first
/// repeats the untraced run, then replays the same requests through the
/// public calls Server::handle makes, with one span per call, and yields
/// the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_E2EBENCH_WORKLOADS_H
#define PYPM_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Lines printed before the result line (per-model rows, mix shares).
  std::vector<std::string> Notes;
  /// The first few failures, for stderr.
  std::vector<std::string> Problems;

  /// Records a failed check; the run is then not correct.
  void problem(std::string Msg);
  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

bool knownWorkload(std::string_view Name);

RunResult runWorkload(const RunOptions &O);

} // namespace e2e

#endif // PYPM_E2EBENCH_WORKLOADS_H
