//===- e2ebench/Workloads.cpp - Seeded request mixes ----------------------===//
///
/// \file
/// The four workloads. Each is a list of whole cycles; a cycle is the unit
/// the p50 and throughput statistics are taken over. The seed picks request order,
/// spellings and rule-set variants, but never the amount of work in a
/// cycle, so runs with different seeds stay comparable.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "graph/GraphIO.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace pypm::e2e {

std::string baseRuleSource() {
  term::Signature Sig;
  models::declareModelOps(Sig);
  std::string S;
  for (const term::OpInfo &I : Sig.ops()) {
    S += "op " + std::string(I.Name.str()) + "(" + std::to_string(I.Arity) +
         ")";
    if (I.Results != 1)
      S += " -> " + std::to_string(I.Results);
    if (I.OpClass.isValid())
      S += " class(\"" + std::string(I.OpClass.str()) + "\")";
    for (size_t A = 0; A != I.AttrNames.size(); ++A)
      S += (A ? ", " : " attrs(") + std::string(I.AttrNames[A].str());
    if (!I.AttrNames.empty())
      S += ")";
    S += ";\n";
  }
  S += opt::fmhaSource();
  S += opt::epilogSource();
  return S;
}

std::vector<std::string> workloadNames() {
  return {"zoo-greedy", "deep-threads", "rules-churn", "auto-search"};
}

namespace {

/// Cycles per second of run length, measured on the reference machine
/// (README): a run of S seconds sends round(S * rate) cycles, at least
/// kMinCycles. Fixing the count (not the duration) keeps `attempted`
/// identical across runs and makes a faster program finish sooner.
constexpr double kZooCyclesPerSec = 10.0;
constexpr double kDeepCyclesPerSec = 4.5;
constexpr double kChurnCyclesPerSec = 12.0;
constexpr double kAutoCyclesPerSec = 0.5;
constexpr size_t kMinCycles = 3;

/// Requests per rules-churn cycle, and rule-set variants in rotation:
/// more than PlanCache's 64-entry memory ceiling, so most requests miss.
constexpr size_t kChurnCycleRequests = 96;
constexpr size_t kChurnVariants = 96;
/// rules-churn graphs: TV-suite CNNs up to this many nodes.
constexpr size_t kChurnMaxNodes = 120;
/// auto-search graphs: HF-suite models up to this many nodes.
constexpr size_t kAutoMaxNodes = 450;

/// Deterministic generator: std::mt19937_64 is fully specified by the
/// standard, and the helpers below avoid the implementation-defined
/// distributions, so a seed means the same inputs on every toolchain.
class Rng {
public:
  explicit Rng(uint64_t Seed) : G(Seed) {}
  uint64_t below(uint64_t N) { return G() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::mt19937_64 G;
};

uint64_t mixSeed(uint64_t Seed, std::string_view Name) {
  uint64_t H = 1469598103934665603ull ^ Seed;
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  return H;
}

GraphInput fromGraph(std::string Name, const graph::Graph &G, int Layers) {
  GraphInput In;
  In.Name = std::move(Name);
  In.Text = graph::writeGraphText(G);
  In.Nodes = G.numLiveNodes();
  In.Layers = Layers;
  return In;
}

/// A zoo entry as an input. The zoo does not expose its configs, so a
/// transformer's layer count is read off the generated graph: one Softmax
/// per attention block.
GraphInput fromZoo(const models::ModelEntry &M) {
  term::Signature Sig;
  auto G = M.Build(Sig);
  size_t Softmax = G->countOps("Softmax");
  return fromGraph(M.Name, *G, Softmax ? static_cast<int>(Softmax) : -1);
}

size_t cyclesFor(double Seconds, double Rate) {
  return std::max(kMinCycles,
                  static_cast<size_t>(std::llround(Seconds * Rate)));
}

/// Every cycle sends each graph once, in a fresh seeded order.
void permutationCycles(Workload &W, Rng &R, size_t Cycles) {
  std::vector<RequestRef> Base;
  for (uint32_t I = 0; I != W.Graphs.size(); ++I)
    Base.push_back({I, 0});
  for (size_t C = 0; C != Cycles; ++C) {
    R.shuffle(Base);
    W.Cycles.push_back(Base);
  }
}

/// A rule-set variant: the base source plus match-only patterns under
/// fresh names. RuleSet::addLibrary keeps only rule-bearing patterns, so
/// the variant's bytes (and cache key) differ while its rewrite does not.
std::string churnVariant(const std::string &Base, size_t Index, Rng &R) {
  static const char *Unary[] = {"Relu", "Tanh", "Sigmoid", "Exp", "Sqrt",
                                "Neg"};
  static const char *Binary[] = {"Add", "Mul", "Sub", "Div"};
  std::string S = Base;
  size_t Extra = 6 + R.below(5);
  for (size_t P = 0; P != Extra; ++P) {
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "pattern Churn%zu_%llx(x, y) { return %s(%s(x), y); }\n",
                  Index, static_cast<unsigned long long>(R.below(1ull << 40)),
                  Binary[R.below(4)], Unary[R.below(6)]);
    S += Buf;
  }
  return S;
}

} // namespace

bool makeWorkload(std::string_view Name, uint64_t Seed, double Seconds,
                  Workload &W) {
  Rng R(mixSeed(Seed, Name));
  W = Workload();
  W.Name = std::string(Name);
  W.RuleSets.push_back(baseRuleSource());

  if (Name == "zoo-greedy") {
    W.Kind = WorkloadKind::ZooGreedy;
    for (const auto &M : models::hfSuite())
      W.Graphs.push_back(fromZoo(M));
    for (const auto &M : models::tvSuite())
      W.Graphs.push_back(fromZoo(M));
    permutationCycles(W, R, cyclesFor(Seconds, kZooCyclesPerSec));
  } else if (Name == "deep-threads") {
    W.Kind = WorkloadKind::DeepThreads;
    W.Threads = 2;
    // Fixed depths and tensor sizes, so every seed does the same matching
    // work and prices the same; the seed picks the GELU and scale spellings
    // and the order. Seven models keep each cycle's median on one model.
    for (int Layers : {24, 30, 37, 44, 51, 58, 64}) {
      models::TransformerConfig C;
      C.Layers = Layers;
      C.Half = R.below(2) ? models::TransformerConfig::HalfStyle::MulHalf
                          : models::TransformerConfig::HalfStyle::DivTwo;
      C.Scale = R.below(2) ? models::TransformerConfig::ScaleStyle::MulInvSqrtD
                           : models::TransformerConfig::ScaleStyle::DivSqrtD;
      C.Name = "deep-" + std::to_string(Layers);
      term::Signature Sig;
      auto G = models::buildTransformer(Sig, C);
      W.Graphs.push_back(fromGraph(C.Name, *G, Layers));
    }
    permutationCycles(W, R, cyclesFor(Seconds, kDeepCyclesPerSec));
  } else if (Name == "rules-churn") {
    W.Kind = WorkloadKind::RulesChurn;
    for (const auto &M : models::tvSuite()) {
      GraphInput In = fromZoo(M);
      if (In.Nodes <= kChurnMaxNodes)
        W.Graphs.push_back(std::move(In));
    }
    const std::string Base = W.RuleSets[0];
    W.RuleSets.clear();
    for (size_t V = 0; V != kChurnVariants; ++V)
      W.RuleSets.push_back(churnVariant(Base, V, R));
    size_t Cycles = cyclesFor(Seconds, kChurnCyclesPerSec);
    for (size_t C = 0; C != Cycles; ++C) {
      std::vector<RequestRef> Cycle;
      for (size_t I = 0; I != kChurnCycleRequests; ++I) {
        uint32_t G = static_cast<uint32_t>(R.below(W.Graphs.size()));
        uint32_t V = static_cast<uint32_t>(R.below(kChurnVariants));
        Cycle.push_back({G, V});
      }
      W.Cycles.push_back(std::move(Cycle));
    }
  } else if (Name == "auto-search") {
    W.Kind = WorkloadKind::AutoSearch;
    W.Search = 3;
    for (const auto &M : models::hfSuite()) {
      GraphInput In = fromZoo(M);
      if (In.Nodes <= kAutoMaxNodes)
        W.Graphs.push_back(std::move(In));
    }
    permutationCycles(W, R, cyclesFor(Seconds, kAutoCyclesPerSec));
  } else {
    return false;
  }

  for (uint32_t I = 0; I != W.Graphs.size(); ++I)
    if (W.Graphs[I].Nodes < W.Graphs[W.SetupGraph].Nodes)
      W.SetupGraph = I;
  return true;
}

server::RewriteRequest makeRequest(const Workload &W, const RequestRef &R,
                                   uint64_t Seq) {
  server::RewriteRequest Req;
  Req.Seq = Seq;
  Req.RuleSet = W.RuleSets[R.RuleSet];
  Req.GraphText = W.Graphs[R.Graph].Text;
  Req.Threads = W.Threads;
  Req.Search = W.Search;
  return Req;
}

} // namespace pypm::e2e
