//===- e2ebench/main.cpp - End-to-end pypmd request benchmark -------------===//
///
/// \file
/// Usage:
///   e2ebench --workload NAME --seed N --seconds S --trace 0|1
///
/// Builds the workload's inputs from the seed, runs it untraced (--trace
/// 0: the end-to-end metrics) or as the traced replay (--trace 1: the
/// per-layer ledger), and prints notes followed by one JSON line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// See README.md for the workloads, metrics and reference figures.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>

#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pypm::e2e;

static int usage() {
  std::string Names;
  for (const std::string &N : workloadNames())
    Names += (Names.empty() ? "" : "|") + N;
  std::fprintf(stderr,
               "usage: e2ebench --workload %s --seed N --seconds S "
               "--trace 0|1\n",
               Names.c_str());
  return 2;
}

/// Runs the whole benchmark on one CPU, the highest-numbered one this
/// process may use; the daemon's and the engine's threads inherit the mask.
/// In the closed loop the client waits while the daemon works, so one CPU
/// never idles during a run. Left free to move, a hand-off could go to
/// another virtual CPU that the host first had to wake; on a busy host the
/// short zoo requests then spread 37-46% between runs while their CPU time
/// held, which fits that wake-up rather than the program. Returns the CPU,
/// or -1 if the mask was left alone.
static int pinToOneCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (::sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return -1;
  int Cpu = -1;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpu = C;
  if (Cpu < 0)
    return -1;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return ::sched_setaffinity(0, sizeof(Set), &Set) == 0 ? Cpu : -1;
}

int main(int argc, char **argv) {
  std::string Name;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      return usage();
    std::string_view Flag = argv[I];
    const char *Val = argv[++I];
    if (Flag == "--workload")
      Name = Val;
    else if (Flag == "--seed")
      Seed = std::strtoull(Val, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Val, nullptr);
    else if (Flag == "--trace")
      Trace = std::strcmp(Val, "0") != 0;
    else
      return usage();
  }
  if (!(Seconds > 0))
    return usage();

  // A daemon whose peer went away must not take the process with it.
  std::signal(SIGPIPE, SIG_IGN);
  const int Cpu = pinToOneCpu();

  // The traced run serves every request twice (Server::handle and the
  // traced replay), so it replays half the cycles to last about as long.
  Workload W;
  if (!makeWorkload(Name, Seed, Trace ? Seconds / 2 : Seconds, W))
    return usage();
  RunResult R = Trace ? runTraced(W) : runEndToEnd(W);
  R.Notes.insert(R.Notes.begin(), "pinned_cpu=" + std::to_string(Cpu));

  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Key, M] : R.Metrics) {
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "e2ebench: metric %s is not finite\n", Key.c_str());
      return 1;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Json += (First ? "\"" : ", \"") + Key + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
