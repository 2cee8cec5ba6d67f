//===- e2ebench/Bench.h - End-to-end pypmd request benchmark ----*- C++ -*-===//
///
/// \file
/// Shared types of the end-to-end request benchmark. One unit of work is a
/// pypmd rewrite request: rule-set bytes plus a graph in, a rewritten graph
/// out. A workload is a seeded mix of such requests, sent in whole cycles;
/// every reply is checked against results computed apart from the rewriter
/// (Checks.cpp). Daemon.cpp drives a real server::Server over a socketpair
/// for the end-to-end metrics; Trace.cpp replays the same mix through the
/// layers' public functions for the per-layer ledger.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_E2EBENCH_BENCH_H
#define PYPM_E2EBENCH_BENCH_H

#include "server/Protocol.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pypm::e2e {

enum class WorkloadKind { ZooGreedy, DeepThreads, RulesChurn, AutoSearch };

/// One input graph and what is known about it without running the
/// rewriter.
struct GraphInput {
  std::string Name;
  std::string Text; ///< writeGraphText of the generated model
  size_t Nodes = 0;
  /// Transformer layers (one FMHA/FMHAMasked and one GEMM epilog each after
  /// rewriting), or -1 for graphs without attention.
  int Layers = -1;
};

/// One request of a cycle: which graph, under which rule set.
struct RequestRef {
  uint32_t Graph = 0;
  uint32_t RuleSet = 0;
};

struct Workload {
  std::string Name;
  WorkloadKind Kind = WorkloadKind::ZooGreedy;
  uint32_t Threads = 0; ///< RewriteRequest::Threads
  uint8_t Search = 0;   ///< RewriteRequest::Search (0 greedy, 3 auto)
  /// Distinct rule-set bytes. Every variant rewrites exactly like
  /// RuleSets[0], the textual FMHA+Epilog library.
  std::vector<std::string> RuleSets;
  std::vector<GraphInput> Graphs;
  /// The graph each daemon start sends once per rule set to fill the
  /// cache: the workload's smallest graph, so set-up time does not depend
  /// on the seed's request order.
  uint32_t SetupGraph = 0;
  std::vector<std::vector<RequestRef>> Cycles;
};

/// The textual FMHA+Epilog rule set a client ships: operator declarations
/// for the model vocabulary, then the two §4 libraries.
std::string baseRuleSource();

/// Names of the workloads, in the order the README lists them.
std::vector<std::string> workloadNames();

/// Builds the named workload's inputs from \p Seed. The number of cycles
/// is fixed by \p Seconds and the workload's nominal cycle rate, never by
/// how fast this run happens to go. False for an unknown name.
bool makeWorkload(std::string_view Name, uint64_t Seed, double Seconds,
                  Workload &Out);

server::RewriteRequest makeRequest(const Workload &W, const RequestRef &R,
                                   uint64_t Seq);

//===----------------------------------------------------------------------===//
// Independent checks (Checks.cpp)
//===----------------------------------------------------------------------===//

/// What the checks need besides the reply itself.
struct CheckContext {
  /// deep-threads: the Threads=0 reply computed during set-up.
  const std::string *SerialReply = nullptr;
  /// auto-search: modeled cost of the greedy reply computed during set-up.
  const double *GreedyCost = nullptr;
};

class ReplyChecker {
public:
  ReplyChecker();
  ~ReplyChecker();

  /// Checks \p ReplyText as the rewrite of \p In. Returns an empty string
  /// when every check passes, otherwise what failed.
  std::string check(const GraphInput &In, std::string_view ReplyText,
                    const CheckContext &Ctx) const;

  /// sim::CostModel seconds of a graph in text form (-1 if unparsable).
  double modeledCost(std::string_view GraphText) const;

  /// Feeds the checks a correct reply and the same reply with one FMHA
  /// fusion undone; true when the first passes and the second is rejected.
  bool selfTest(std::string &Log) const;

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

//===----------------------------------------------------------------------===//
// Runs (Daemon.cpp, Trace.cpp)
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Notes;
};

/// The untraced run: daemon starts for setup_s, then every cycle through
/// one framed client connection in a closed loop.
RunResult runEndToEnd(const Workload &W);

/// The traced replay: every per-layer metric.
RunResult runTraced(const Workload &W);

/// Wall clock in seconds (steady).
double nowSeconds();

} // namespace pypm::e2e

#endif // PYPM_E2EBENCH_BENCH_H
