#include <array>

#include "frontend/inliner.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "ir/graphgen.hpp"
#include "ir/verify.hpp"
#include "translate/translator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, 8> kStages = {
    "frontend.lex",   "frontend.parse", "frontend.inline", "frontend.sema",
    "ir.graphgen",    "ir.verify",      "partition.plan",  "translate.translate"};

/// Runs one stage under its span and adds its time to `us`.
template <typename F>
void stage(Tracer& t, std::size_t i, std::int32_t parent, std::uint32_t job,
           std::array<double, kStages.size()>& us, F&& f) {
  Span s(&t, kStages[i], parent, job);
  const auto t0 = Clock::now();
  f();
  us[i] += msSince(t0) * 1e3;
}

}  // namespace

void probeCompile(const std::vector<std::string>& sources, int reps,
                  Tracer& tracer, Report& r) {
  namespace fe = pods::fe;
  std::array<std::vector<double>, kStages.size()> perRep;
  double spInstrs = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::array<double, kStages.size()> us{};
    for (std::size_t p = 0; p < sources.size(); ++p) {
      const std::string& src = sources[p];
      const auto job = static_cast<std::uint32_t>(p);
      Span root(&tracer, "compile", Tracer::kNoSpan, job);
      pods::DiagSink diags;
      fe::Module module;
      pods::ir::Program graph;
      pods::partition::Plan plan;
      pods::SpProgram program;
      std::string verr;
      bool verified = false;
      // fe::parse lexes the buffer itself, so parse time includes a lex.
      stage(tracer, 0, root.id(), job, us, [&] { (void)fe::lex(src, diags); });
      stage(tracer, 1, root.id(), job, us, [&] { module = fe::parse(src, diags); });
      stage(tracer, 2, root.id(), job, us, [&] { fe::expandInlines(module, diags); });
      stage(tracer, 3, root.id(), job, us, [&] { fe::analyze(module, diags); });
      stage(tracer, 4, root.id(), job, us,
            [&] { graph = pods::ir::buildGraph(module, diags); });
      stage(tracer, 5, root.id(), job, us,
            [&] { verified = pods::ir::verify(graph, verr); });
      stage(tracer, 6, root.id(), job, us,
            [&] { plan = pods::partition::makePlan(graph, {}); });
      stage(tracer, 7, root.id(), job, us,
            [&] { program = pods::translate::translate(graph, plan); });
      if (diags.hasErrors() || !verified)
        die("staged compile failed:\n" + diags.str() + verr);
      if (rep == 0) spInstrs += static_cast<double>(program.totalInstrs());
    }
    for (std::size_t i = 0; i < kStages.size(); ++i)
      perRep[i].push_back(us[i] / static_cast<double>(sources.size()));
  }
  for (std::size_t i = 0; i < kStages.size(); ++i)
    r.add(std::string(kStages[i]) + "_us", median(perRep[i]), "us");
  r.add("translate.sp_instrs", spInstrs / static_cast<double>(sources.size()),
        "count");
}

}  // namespace perfbench
