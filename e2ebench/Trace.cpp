//===- e2ebench/Trace.cpp - The traced per-layer replay -------------------===//
///
/// \file
/// Replays a workload's requests (the set-up requests, then every cycle)
/// through the layers' public functions, in the order Server::handle calls
/// them, timing each call from outside:
///
///   PlanCache::acquire -> parseGraphText -> analyzeConfluence (auto only)
///   -> rewriteToFixpoint -> writeGraphText
///
/// Each request is also served untraced by Server::handle, on a server
/// whose cache has the replay cache's options and sees the same requests;
/// the handle wall time minus the layer times is request.residual_ms, so
/// the ledger closes by construction.
/// The replay's own wall time minus the untraced one is the tracing
/// overhead. The two run in alternating order so neither always inherits
/// the other's warm caches. The DSL/lint/plan compile costs are children
/// of acquire: on each acquire that compiled, the front end is replayed
/// once more outside the request's wall time to split that cost.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Analysis.h"
#include "analysis/CriticalPairs.h"
#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "server/Server.h"
#include "support/Budget.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

namespace pypm::e2e {

namespace {

/// Sums over all replayed requests; reported as means per request.
struct Ledger {
  double Frame = 0, Acquire = 0, Dsl = 0, Lint = 0, Plan = 0;
  double Confluence = 0, Parse = 0, Fixpoint = 0, Match = 0, Discovery = 0;
  double Write = 0, Search = 0, Handle = 0, Traced = 0;
  uint64_t Passes = 0, Visited = 0, Attempts = 0, Steps = 0, Fired = 0;
  uint64_t Expansions = 0, Candidates = 0;
};

/// One socketpair with a writer thread on its far end: frames handed to
/// send() are written by the writer while the caller reads them with
/// server::readFrame, as a client's frames reach the daemon's frame loop.
class Wire {
public:
  Wire() {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return;
    WriteFd = Fds[0];
    ReadFd = Fds[1];
    Writer = std::thread([this] { pump(); });
  }
  ~Wire() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    Ready.notify_one();
    if (Writer.joinable())
      Writer.join();
    if (WriteFd >= 0)
      ::close(WriteFd);
    if (ReadFd >= 0)
      ::close(ReadFd);
  }
  Wire(const Wire &) = delete;
  Wire &operator=(const Wire &) = delete;

  /// Sends \p Frame through the socket and reads it back with readFrame;
  /// false unless the frame arrives whole and checksum-verified.
  bool transfer(std::string Frame, bool Request, std::string &Body) {
    if (ReadFd < 0)
      return false;
    {
      std::lock_guard<std::mutex> Lock(M);
      Pending = std::move(Frame);
      Has = true;
    }
    Ready.notify_one();
    return server::readFrame(ReadFd, Request, Body) ==
           server::FrameStatus::Ok;
  }

private:
  void pump() {
    for (;;) {
      std::string Frame;
      {
        std::unique_lock<std::mutex> Lock(M);
        Ready.wait(Lock, [this] { return Has || Done; });
        if (!Has)
          return;
        Frame = std::move(Pending);
        Has = false;
      }
      for (size_t Off = 0; Off < Frame.size();) {
        ssize_t N = ::write(WriteFd, Frame.data() + Off, Frame.size() - Off);
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0) // the reader then sees a truncated frame
          break;
        Off += static_cast<size_t>(N);
      }
    }
  }

  int WriteFd = -1;
  int ReadFd = -1;
  std::mutex M;
  std::condition_variable Ready;
  std::string Pending;
  bool Has = false;
  bool Done = false;
  std::thread Writer; // last: joins before the members it uses go away
};

/// Encode, frame, transfer, read and decode one request and its reply, as
/// the client and the daemon's frame loop do. False if any step fails.
bool timeFraming(Wire &Sock, const server::RewriteRequest &R,
                 const server::RewriteReply &Rep, Ledger &L) {
  double T0 = nowSeconds();
  std::string Body, Err;
  server::RewriteRequest Decoded;
  server::RewriteReply DecodedRep;
  bool Ok =
      Sock.transfer(server::frameBytes(true, server::encodeRewriteRequest(R)),
                    /*Request=*/true, Body) &&
      server::decodeRewriteRequest(Body, Decoded, Err) &&
      Sock.transfer(server::frameBytes(false, server::encodeRewriteReply(Rep)),
                    /*Request=*/false, Body) &&
      server::decodeRewriteReply(Body, DecodedRep, Err);
  L.Frame += nowSeconds() - T0;
  return Ok;
}

/// Splits a compiling acquire into its front-end children.
void replayFrontEnd(std::string_view Bytes, Ledger &L) {
  term::Signature Sig;
  DiagnosticEngine Diags;
  double T0 = nowSeconds();
  auto Lib = dsl::compile(Bytes, Sig, Diags);
  double T1 = nowSeconds();
  L.Dsl += T1 - T0;
  if (!Lib)
    return;
  rewrite::RuleSet Rules;
  Rules.addLibrary(*Lib);
  double T2 = nowSeconds();
  plan::Program Prog = plan::PlanBuilder::compile(Rules, Sig);
  double T3 = nowSeconds();
  analysis::LintReport Lint = analysis::lintRuleSet(Rules, Sig);
  L.Plan += T3 - T2;
  L.Lint += nowSeconds() - T3;
}

/// The traced twin of Server::handle for the request kinds the workloads
/// send (inline rule-set bytes, plan matcher, no faults). Returns false if
/// a layer refused the request.
bool replay(server::PlanCache &Cache, const server::RewriteRequest &R,
            Ledger &L, std::string &Out) {
  double Start = nowSeconds();
  DiagnosticEngine LoadDiags;
  server::CacheSource Src;
  double T0 = nowSeconds();
  auto E = Cache.acquire(R.RuleSet, LoadDiags, Src);
  double T1 = nowSeconds();
  L.Acquire += T1 - T0;
  if (!E || !E->Lint.clean())
    return false;

  term::Signature Sig = E->Sig;
  DiagnosticEngine Diags;
  double T2 = nowSeconds();
  std::unique_ptr<graph::Graph> G =
      graph::parseGraphText(R.GraphText, Sig, Diags);
  L.Parse += nowSeconds() - T2;
  if (!G)
    return false;

  rewrite::RewriteOptions EOpts;
  EOpts.NumThreads = R.Threads;
  EOpts.Matcher = rewrite::MatcherKind::Plan;
  EOpts.PrecompiledPlan = &E->prog();
  EOpts.PrecompiledThreaded = E->threaded();
  EOpts.AotLib = E->aotLib();
  EOpts.Search = static_cast<rewrite::SearchStrategy>(R.Search);
  EOpts.Diags = &Diags;
  CancellationToken Cancel;
  BudgetLimits Limits;
  Limits.Cancel = &Cancel;
  Budget Bgt(Limits);
  EOpts.EngineBudget = &Bgt;

  // The engine runs this analysis itself on every auto request; running
  // it here and handing the report over splits it out of the fixpoint.
  analysis::critical::ConfluenceReport Report;
  if (EOpts.Search == rewrite::SearchStrategy::Auto) {
    double C0 = nowSeconds();
    Report = analysis::critical::analyzeConfluence(E->rules(), Sig);
    L.Confluence += nowSeconds() - C0;
    EOpts.Confluence = &Report;
  }

  double F0 = nowSeconds();
  rewrite::RewriteStats S = rewrite::rewriteToFixpoint(
      *G, E->rules(), graph::ShapeInference(), EOpts);
  double F1 = nowSeconds();
  L.Fixpoint += F1 - F0;
  Out = graph::writeGraphText(*G);
  double W1 = nowSeconds();
  L.Write += W1 - F1;
  L.Traced += W1 - Start;

  L.Match += S.MatchSeconds;
  L.Discovery += S.DiscoverySeconds;
  L.Search += S.SearchSeconds;
  L.Passes += S.Passes;
  L.Visited += S.NodesVisited;
  L.Fired += S.TotalFired;
  L.Expansions += S.SearchExpansions;
  L.Candidates += S.SearchCandidates;
  for (const auto &[Name, PS] : S.PerPattern) {
    L.Attempts += PS.Attempts;
    L.Steps += PS.MachineSteps;
  }
  if (Src == server::CacheSource::Compiled)
    replayFrontEnd(R.RuleSet, L);
  return S.Status.Code == EngineStatusCode::Completed;
}

} // namespace

RunResult runTraced(const Workload &W) {
  RunResult Res;
  server::ServerOptions Opts;
  Opts.Workers = 1;
  server::Server Untraced(Opts); // handle() only; no workers started
  server::PlanCache Cache(Opts.Cache);
  Wire Sock;
  Ledger L;

  std::vector<RequestRef> Order;
  for (uint32_t RS = 0; RS != W.RuleSets.size(); ++RS)
    Order.push_back({W.SetupGraph, RS});
  for (const auto &Cycle : W.Cycles)
    Order.insert(Order.end(), Cycle.begin(), Cycle.end());

  uint64_t Seq = 0;
  for (const RequestRef &Ref : Order) {
    server::RewriteRequest R = makeRequest(W, Ref, ++Seq);
    server::RewriteReply Rep;
    std::string Traced;
    bool Ok = true;
    auto Handle = [&] {
      double T0 = nowSeconds();
      Rep = Untraced.handle(R);
      L.Handle += nowSeconds() - T0;
    };
    if (Seq % 2) {
      Handle();
      Ok = replay(Cache, R, L, Traced);
    } else {
      Ok = replay(Cache, R, L, Traced);
      Handle();
    }
    Ok = timeFraming(Sock, R, Rep, L) && Ok;
    ++Res.Attempted;
    if (!Ok || Rep.Status != server::ServerStatus::Ok) {
      ++Res.Failed;
    } else if (Rep.GraphText != Traced && Res.Correct) {
      Res.Correct = false;
      Res.Notes.push_back("traced replay and Server::handle disagree on " +
                          W.Graphs[Ref.Graph].Name);
    }
  }

  const double N = static_cast<double>(Order.size());
  server::PlanCache::Stats CS = Cache.stats();
  double Residual = L.Handle - (L.Acquire + L.Confluence + L.Parse +
                                L.Fixpoint + L.Write);
  auto Ms = [N](double Sec) { return Sec * 1e3 / N; };
  auto Per = [N](double Count) { return Count / N; };
  auto Put = [&Res](const char *Name, double V, const char *Unit) {
    Res.Metrics[Name] = Metric{V, Unit};
  };
  Put("server.frame_us", L.Frame * 1e6 / N, "us");
  Put("server.acquire_ms", Ms(L.Acquire), "ms");
  Put("server.hit_ratio", double(CS.RawHits + CS.ContentHits) / N, "ratio");
  Put("server.compiles", CS.Compiles * 1000.0 / N, "1/1000req");
  Put("server.flushes", CS.Flushes * 1000.0 / N, "1/1000req");
  Put("dsl.compile_ms", Ms(L.Dsl), "ms");
  Put("analysis.lint_ms", Ms(L.Lint), "ms");
  Put("plan.compile_ms", Ms(L.Plan), "ms");
  Put("analysis.confluence_ms", Ms(L.Confluence), "ms");
  Put("graph.parse_ms", Ms(L.Parse), "ms");
  Put("graph.write_ms", Ms(L.Write), "ms");
  Put("rewrite.fixpoint_ms", Ms(L.Fixpoint), "ms");
  Put("rewrite.match_ms", Ms(L.Match), "ms");
  Put("rewrite.commit_ms", Ms(L.Fixpoint - L.Match), "ms");
  Put("rewrite.discovery_ms", Ms(L.Discovery), "ms");
  Put("rewrite.passes", Per(L.Passes), "count");
  Put("rewrite.nodes_visited", Per(L.Visited), "count");
  Put("rewrite.attempts", Per(L.Attempts), "count");
  Put("rewrite.machine_steps", Per(L.Steps), "count");
  Put("rewrite.fired", Per(L.Fired), "count");
  Put("rewrite.fire_ratio", L.Attempts ? double(L.Fired) / L.Attempts : 0.0,
      "ratio");
  Put("search.ms", Ms(L.Search), "ms");
  Put("search.expansions", Per(L.Expansions), "count");
  Put("search.candidates", Per(L.Candidates), "count");
  Put("request.handle_ms", Ms(L.Handle), "ms");
  Put("request.residual_ms", Ms(Residual), "ms");
  Put("trace.overhead_ms", Ms(L.Traced - L.Handle), "ms");

  std::ostringstream Note;
  Note << "ledger: workload=" << W.Name << " requests=" << Order.size()
       << " handle_ms=" << Ms(L.Handle) << " = acquire " << Ms(L.Acquire)
       << " + confluence " << Ms(L.Confluence) << " + parse "
       << Ms(L.Parse) << " + fixpoint " << Ms(L.Fixpoint) << " + write "
       << Ms(L.Write) << " + residual " << Ms(Residual)
       << "; traced_ms=" << Ms(L.Traced);
  Res.Notes.push_back(Note.str());
  return Res;
}

} // namespace pypm::e2e
