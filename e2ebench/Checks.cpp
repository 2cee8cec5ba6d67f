//===- e2ebench/Checks.cpp - Reply checks apart from the rewriter ---------===//
///
/// \file
/// Every reply is judged by facts the rewriter does not produce:
///
///  - the transformer's layer count fixes the fused-kernel counts (one
///    FMHA/FMHAMasked and one GEMM epilog per layer) and no Softmax or Erf
///    may survive;
///  - the reference Machine of Figs. 17-18, run node by node over the
///    reply, finds no rule-bearing pattern that still matches (the
///    FMHA+Epilog rules carry no rule-level guards, so a match means a
///    rule would fire);
///  - output shapes and dtypes equal the input's;
///  - the sim::CostModel cost never rises, on auto-search equals the
///    greedy reply's, and on deep-threads the reply is byte-identical to
///    the serial (Threads=0) reply.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "match/Machine.h"
#include "models/Transformers.h"
#include "rewrite/RewriteEngine.h"
#include "sim/CostModel.h"

#include <cmath>

namespace pypm::e2e {

struct ReplyChecker::Impl {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet Rules;
  sim::CostModel Cost;

  /// A parsed graph with the private signature copy it refers to.
  struct Parsed {
    std::unique_ptr<term::Signature> Sig;
    std::unique_ptr<graph::Graph> G;
  };

  Parsed parse(std::string_view Text) const {
    Parsed P;
    P.Sig = std::make_unique<term::Signature>(Sig);
    DiagnosticEngine Diags;
    P.G = graph::parseGraphText(Text, *P.Sig, Diags);
    return P;
  }

  /// Nodes where some rule-bearing pattern still matches, by the
  /// reference machine.
  size_t firingSites(const graph::Graph &G) const {
    term::TermArena Arena(G.signature());
    graph::TermView View(G, Arena);
    size_t Sites = 0;
    for (graph::NodeId N : G.topoOrder()) {
      term::TermRef T = View.termFor(N);
      for (const rewrite::RewriteEntry &E : Rules.entries())
        if (!E.Rules.empty() &&
            match::matchPattern(E.Pattern->Pat, T, Arena).matched())
          ++Sites;
    }
    return Sites;
  }

  /// Every failed check, joined by "; " (empty when all pass).
  std::string check(const GraphInput &In, std::string_view ReplyText,
                    const CheckContext &Ctx) const {
    Parsed Input = parse(In.Text);
    Parsed Reply = parse(ReplyText);
    if (!Input.G || !Reply.G)
      return "graph text does not parse";
    const graph::Graph &GI = *Input.G, &GR = *Reply.G;
    std::string Fails;
    auto Fail = [&Fails](const std::string &Why) {
      Fails += (Fails.empty() ? "" : "; ") + Why;
    };

    if (Ctx.SerialReply && ReplyText != *Ctx.SerialReply)
      Fail("reply differs from the Threads=0 reply");

    if (GI.outputs().size() != GR.outputs().size())
      Fail("output count changed");
    else
      for (size_t I = 0; I != GI.outputs().size(); ++I)
        if (!(GI.type(GI.outputs()[I]) == GR.type(GR.outputs()[I])))
          Fail("output " + std::to_string(I) + " type changed from " +
               GI.type(GI.outputs()[I]).str() + " to " +
               GR.type(GR.outputs()[I]).str());

    for (const char *Gone : {"Softmax", "Erf"})
      if (size_t N = GR.countOps(Gone))
        Fail(std::to_string(N) + " " + Gone + " left");
    if (In.Layers >= 0) {
      size_t Mha = GR.countOps("FMHA") + GR.countOps("FMHAMasked");
      size_t Gemm = GR.countOps("GemmEpilog") + GR.countOps("GemmBiasEpilog");
      if (Mha != static_cast<size_t>(In.Layers))
        Fail(std::to_string(Mha) + " fused attention kernels, expected " +
             std::to_string(In.Layers));
      if (Gemm != static_cast<size_t>(In.Layers))
        Fail(std::to_string(Gemm) + " GEMM epilogs, expected " +
             std::to_string(In.Layers));
    }

    if (size_t Sites = firingSites(GR))
      Fail("reference machine still matches a rule at " +
           std::to_string(Sites) + " node(s)");

    double CostIn = Cost.graphCost(GI).Seconds;
    double CostOut = Cost.graphCost(GR).Seconds;
    if (CostOut > CostIn)
      Fail("modeled cost rose");
    if (Ctx.GreedyCost &&
        std::fabs(CostOut - *Ctx.GreedyCost) > 1e-12 * *Ctx.GreedyCost)
      Fail("modeled cost differs from the greedy reply's");
    return Fails;
  }
};

ReplyChecker::ReplyChecker() : P(std::make_unique<Impl>()) {
  DiagnosticEngine Diags;
  P->Lib = dsl::compile(baseRuleSource(), P->Sig, Diags);
  if (P->Lib)
    P->Rules.addLibrary(*P->Lib);
}

ReplyChecker::~ReplyChecker() = default;

std::string ReplyChecker::check(const GraphInput &In,
                                std::string_view ReplyText,
                                const CheckContext &Ctx) const {
  if (!P->Lib)
    return "reference rule set does not compile";
  return P->check(In, ReplyText, Ctx);
}

double ReplyChecker::modeledCost(std::string_view GraphText) const {
  Impl::Parsed G = P->parse(GraphText);
  return G.G ? P->Cost.graphCost(*G.G).Seconds : -1.0;
}

bool ReplyChecker::selfTest(std::string &Log) const {
  // A two-layer transformer and its greedy rewrite.
  models::TransformerConfig C;
  C.Name = "selftest";
  C.Layers = 2;
  C.Hidden = 128;
  C.FfnHidden = 512;
  term::Signature GenSig;
  auto Gen = models::buildTransformer(GenSig, C);
  GraphInput In;
  In.Name = C.Name;
  In.Text = graph::writeGraphText(*Gen);
  In.Layers = C.Layers;

  Impl::Parsed Good = P->parse(In.Text);
  if (!Good.G || !P->Lib) {
    Log = "self-test: input does not parse";
    return false;
  }
  graph::ShapeInference SI;
  rewrite::rewriteToFixpoint(*Good.G, P->Rules, SI);
  std::string GoodText = graph::writeGraphText(*Good.G);
  if (std::string Err = check(In, GoodText, {}); !Err.empty()) {
    Log = "self-test: correct reply rejected: " + Err;
    return false;
  }

  // Undo the first FMHA: rebuild softmax(Q·Kᵀ/s)·V in its place.
  graph::Graph &G = *Good.G;
  term::Signature &Sig = G.signature();
  graph::NodeId Fused = graph::InvalidNode;
  for (graph::NodeId N : G.topoOrder())
    if (Sig.name(G.op(N)).str() == "FMHA") {
      Fused = N;
      break;
    }
  if (Fused == graph::InvalidNode) {
    Log = "self-test: no FMHA in the correct reply";
    return false;
  }
  graph::NodeId Q = G.inputs(Fused)[0], K = G.inputs(Fused)[1],
                V = G.inputs(Fused)[2];
  graph::NodeId Kt = G.addNode(Sig.lookup("Trans"), {K});
  graph::NodeId S = G.addNode(Sig.lookup("MatMul"), {Q, Kt});
  graph::NodeId Sc = G.addNode(Sig.lookup("Div"), {S, G.addConst(8.0)});
  graph::NodeId Sm = G.addNode(Sig.lookup("Softmax"), {Sc});
  graph::NodeId Out = G.addNode(Sig.lookup("MatMul"), {Sm, V});
  for (graph::NodeId N : {Kt, S, Sc, Sm, Out})
    SI.inferNode(G, N);
  G.replaceAllUses(Fused, Out);
  G.removeUnreachable();
  std::string Err = check(In, graph::writeGraphText(G), {});
  if (Err.empty()) {
    Log = "self-test: reply with one fusion undone was accepted";
    return false;
  }
  Log = "self-test: reply with one fusion undone rejected (" + Err + ")";
  return true;
}

} // namespace pypm::e2e
