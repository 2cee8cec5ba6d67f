//===- e2ebench/Daemon.cpp - The untraced end-to-end run ------------------===//
///
/// \file
/// Drives server::Server the way a pypmd client does: one framed client
/// connection over a socketpair, one daemon worker, a closed loop (each
/// request waits for its reply before the next is sent). Set-up time comes
/// from several fresh daemon starts, each serving the first request of
/// every distinct rule set. The starts are spread over the run, and each
/// serves the measured cycles that follow it with its cache warm. Every
/// time is taken per cycle (or per start) and reported at the run's slow
/// decile; see slowDecile.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "server/Server.h"
#include "support/Budget.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

namespace pypm::e2e {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Fresh daemon starts per run; set-up time is their slow decile.
constexpr size_t kSetupStarts = 96;

/// One pypmd: a Server with one worker serving one socketpair connection
/// on its own thread. Destruction closes the client's write side, which
/// the frame loop sees as a clean EOF; it drains and returns.
class Daemon {
public:
  Daemon() : Srv(options()) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return;
    ClientFd = Fds[0];
    ServerFd = Fds[1];
    Serving = std::thread([this] { Srv.serve(ServerFd, ServerFd); });
  }
  ~Daemon() {
    if (ClientFd >= 0)
      ::shutdown(ClientFd, SHUT_WR);
    if (Serving.joinable())
      Serving.join();
    Srv.stop();
    if (ClientFd >= 0)
      ::close(ClientFd);
    if (ServerFd >= 0)
      ::close(ServerFd);
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Sends one already-framed request and decodes its reply.
  bool roundTrip(std::string_view Frame, server::RewriteReply &Rep) {
    if (ClientFd < 0)
      return false;
    for (size_t Off = 0; Off < Frame.size();) {
      ssize_t N = ::write(ClientFd, Frame.data() + Off, Frame.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    std::string Body, Err;
    return server::readFrame(ClientFd, /*Request=*/false, Body) ==
               server::FrameStatus::Ok &&
           server::decodeRewriteReply(Body, Rep, Err);
  }

private:
  static server::ServerOptions options() {
    server::ServerOptions O;
    O.Workers = 1;
    return O;
  }

  server::Server Srv;
  int ClientFd = -1;
  int ServerFd = -1;
  std::thread Serving; // last: joins before the members it uses go away
};

std::string frameFor(const Workload &W, const RequestRef &R, uint64_t Seq) {
  return server::frameBytes(
      /*Request=*/true, server::encodeRewriteRequest(makeRequest(W, R, Seq)));
}

bool replyOk(const server::RewriteReply &Rep, uint64_t Seq) {
  return Rep.Seq == Seq && Rep.Status == server::ServerStatus::Ok &&
         Rep.EngineCode ==
             static_cast<uint8_t>(EngineStatusCode::Completed);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double> &Sorted, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * Sorted.size()));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The run's slow decile of per-cycle (or per-start) values: the 90th
/// percentile of times, or with \p Rate the 10th percentile of rates. Every
/// cycle is the same work, so the values differ only by how fast the
/// machine ran. The machine runs in spells: a slow level that recurs in
/// every run and faster spells of varying speed and share. A trimmed mean
/// over cycles follows that share: over eight runs of each workload it
/// spread 6-21%, where the slow decile, which reads the recurring level,
/// spread 3-11% (README, Steadiness). A tenth of the cycles must stall
/// before a stall sets it.
double slowDecile(std::vector<double> V, bool Rate = false) {
  std::sort(V.begin(), V.end());
  return percentile(V, Rate ? 0.1 : 0.9);
}

/// Aggregate steal and total jiffies from the first line of /proc/stat.
void readStat(uint64_t &Steal, uint64_t &Total) {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  Steal = Total = 0;
  for (int Field = 0; Field != 10; ++Field) {
    uint64_t V = 0;
    if (!(In >> V))
      break;
    if (Field < 8) // guest time is already counted in user
      Total += V;
    if (Field == 7)
      Steal = V;
  }
}

double cpuSeconds() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// Peak resident set of this process in KiB: VmHWM from /proc/self/status.
/// Not ru_maxrss, which Linux carries across execve, so a benchmark started
/// from a larger parent (a Python driver, say) would report the parent's.
double peakRssKiB() {
  std::ifstream In("/proc/self/status");
  std::string Key;
  double KiB = 0;
  while (In >> Key) {
    if (Key == "VmHWM:") {
      In >> KiB;
      break;
    }
    In.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return KiB;
}

} // namespace

RunResult runEndToEnd(const Workload &W) {
  RunResult Res;
  ReplyChecker Checker;
  std::string SelfLog;
  if (!Checker.selfTest(SelfLog))
    Res.Correct = false;
  Res.Notes.push_back(SelfLog);

  // References for the checks, computed apart from the measured daemon.
  std::vector<std::string> Serial(W.Graphs.size());
  std::vector<double> Greedy(W.Graphs.size(), 0.0);
  if (W.Kind == WorkloadKind::DeepThreads ||
      W.Kind == WorkloadKind::AutoSearch) {
    server::Server Ref(server::ServerOptions{});
    for (uint32_t G = 0; G != W.Graphs.size(); ++G) {
      server::RewriteRequest R = makeRequest(W, {G, 0}, 0);
      R.Threads = 0;
      R.Search = 0;
      server::RewriteReply Rep = Ref.handle(R);
      Serial[G] = Rep.GraphText;
      Greedy[G] = Checker.modeledCost(Rep.GraphText);
    }
  }

  // Every reply for one graph must be byte-identical (rule-set variants,
  // cache tiers and repeats included); the first is stored and checked.
  std::vector<std::string> Replies(W.Graphs.size());
  uint64_t Seq = 0;
  auto Record = [&](const RequestRef &R, bool Sent,
                    const server::RewriteReply &Rep) {
    ++Res.Attempted;
    if (!Sent || !replyOk(Rep, Seq)) {
      ++Res.Failed;
      return;
    }
    std::string &Stored = Replies[R.Graph];
    if (Stored.empty())
      Stored = Rep.GraphText;
    else if (Stored != Rep.GraphText && Res.Correct) {
      Res.Correct = false;
      Res.Notes.push_back("reply for " + W.Graphs[R.Graph].Name +
                          " changed between requests");
    }
  };

  // Set-up: fresh daemon starts, each filling the cache with the first
  // request of every rule set. Frames are built before the clock starts.
  // The starts are spread evenly over the gaps before, between and after
  // the cycles, and each new daemon serves the cycles that follow it, so
  // set-up samples the machine across the whole run as the cycles do. Only
  // one daemon is ever alive, so peak RSS is one daemon's.
  std::vector<double> Setups;
  std::unique_ptr<Daemon> D;
  auto StartDaemon = [&] {
    std::vector<std::string> Frames;
    for (uint32_t RS = 0; RS != W.RuleSets.size(); ++RS)
      Frames.push_back(frameFor(W, {W.SetupGraph, RS}, Seq + 1 + RS));
    D.reset();
    double T0 = nowSeconds();
    D = std::make_unique<Daemon>();
    for (uint32_t RS = 0; RS != W.RuleSets.size(); ++RS) {
      server::RewriteReply Rep;
      ++Seq;
      bool Sent = D->roundTrip(Frames[RS], Rep);
      Record({W.SetupGraph, RS}, Sent, Rep);
    }
    Setups.push_back(nowSeconds() - T0);
  };
  // Starts in gap G (gap 0 before the first cycle, the last after the
  // last cycle); gap 0 always gets at least one.
  const size_t Gaps = W.Cycles.size() + 1;
  auto StartsBefore = [Gaps](size_t G) {
    return (G * kSetupStarts + Gaps - 1) / Gaps;
  };

  // The measured cycles.
  std::vector<double> Latency, CycleMedian, CycleTail, CycleRate, CycleCpu;
  // The tail is the higher of p90 and p99 with at least ten of the run's
  // requests beyond it, read within each cycle. Every workload sends at
  // least 240 requests per run, so the p50 fallback never applies at the
  // benchmark's run length. p99.9 is not a candidate: a zoo cycle is 48
  // requests, so its p99 is already its slowest request.
  size_t N = 0;
  for (const std::vector<RequestRef> &Cycle : W.Cycles)
    N += Cycle.size();
  double TailQ = 0.5;
  for (double Q : {0.9, 0.99})
    if (N * (1 - Q) >= 10)
      TailQ = Q;
  std::set<int> Cpus;
  uint64_t Steal0, Total0, Steal1, Total1;
  readStat(Steal0, Total0);
  double Wall = 0;
  for (size_t G = 0; G != Gaps; ++G) {
    for (size_t I = StartsBefore(G); I != StartsBefore(G + 1); ++I)
      StartDaemon();
    if (G == W.Cycles.size())
      break;
    const std::vector<RequestRef> &Cycle = W.Cycles[G];
    double C0 = nowSeconds(), Cpu0 = cpuSeconds();
    size_t CycleStart = Latency.size();
    for (const RequestRef &R : Cycle) {
      std::string Frame = frameFor(W, R, ++Seq);
      server::RewriteReply Rep;
      double T0 = nowSeconds();
      bool Sent = D->roundTrip(Frame, Rep);
      Latency.push_back(nowSeconds() - T0);
      Cpus.insert(::sched_getcpu());
      Record(R, Sent, Rep);
    }
    double CycleWall = nowSeconds() - C0;
    Wall += CycleWall;
    CycleRate.push_back(Cycle.size() / CycleWall);
    CycleCpu.push_back((cpuSeconds() - Cpu0) / Cycle.size());
    std::vector<double> Trips(Latency.begin() + CycleStart, Latency.end());
    CycleMedian.push_back(median(Trips));
    std::sort(Trips.begin(), Trips.end());
    CycleTail.push_back(percentile(Trips, TailQ));
  }
  readStat(Steal1, Total1);
  D.reset();

  // Check each distinct reply, and price every request.
  double LogSpeedup = 0;
  for (uint32_t G = 0; G != W.Graphs.size(); ++G) {
    if (Replies[G].empty())
      continue;
    CheckContext Ctx;
    if (W.Kind == WorkloadKind::DeepThreads)
      Ctx.SerialReply = &Serial[G];
    if (W.Kind == WorkloadKind::AutoSearch)
      Ctx.GreedyCost = &Greedy[G];
    if (std::string Err = Checker.check(W.Graphs[G], Replies[G], Ctx);
        !Err.empty()) {
      Res.Correct = false;
      Res.Notes.push_back("check failed on " + W.Graphs[G].Name + ": " + Err);
    }
  }
  std::vector<double> Speedup(W.Graphs.size(), 1.0);
  for (uint32_t G = 0; G != W.Graphs.size(); ++G)
    if (!Replies[G].empty())
      Speedup[G] = Checker.modeledCost(W.Graphs[G].Text) /
                   Checker.modeledCost(Replies[G]);
  for (const auto &Cycle : W.Cycles)
    for (const RequestRef &R : Cycle)
      LogSpeedup += std::log(Speedup[R.Graph]);

  auto Put = [&Res](const char *Name, double V, const char *Unit) {
    Res.Metrics[Name] = Metric{V, Unit};
  };
  Put("req_p50_ms", slowDecile(CycleMedian) * 1e3, "ms");
  Put("req_tail_ms", slowDecile(CycleTail) * 1e3, "ms");
  Put("throughput_rps", slowDecile(CycleRate, /*Rate=*/true), "1/s");
  Put("cpu_ms_per_req", slowDecile(CycleCpu) * 1e3, "ms");
  Put("peak_rss_mb", peakRssKiB() / 1024.0, "MiB");
  Put("setup_s", slowDecile(Setups), "s");
  Put("modeled_speedup", std::exp(LogSpeedup / N), "x");

  std::ostringstream Note;
  std::string CpuList;
  for (int C : Cpus)
    CpuList += (CpuList.empty() ? "" : ",") + std::to_string(C);
  uint64_t TotalD = Total1 - Total0, StealD = Steal1 - Steal0;
  Note << "run: workload=" << W.Name << " cycles=" << W.Cycles.size()
       << " requests=" << N << " tail=p" << TailQ * 100 << " wall_s=" << Wall
       << " cpus=" << CpuList << " steal_jiffies=" << StealD
       << " steal_share=" << (TotalD ? double(StealD) / TotalD : 0.0);
  Res.Notes.push_back(Note.str());
  return Res;
}

} // namespace pypm::e2e
