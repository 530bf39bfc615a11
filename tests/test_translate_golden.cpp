// Translation identity: the SP code and the Partitioner's plan for a fixed
// set of programs hash to recorded values. Any change to the compile
// pipeline that alters a single emitted instruction, slot name, jump target
// or Range-Filter decision changes a hash here. A deliberate change to the
// emitted code must re-record the table (the failure message prints the new
// hash) and say why in the change log.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "core/pods.hpp"
#include "proto/ctl.hpp"
#include "workloads/kernels.hpp"
#include "workloads/livermore.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace {

struct Golden {
  const char* name;
  std::uint64_t hash;
};

std::string readProgram(const std::string& file) {
  std::ifstream in(std::string(PODS_PROGRAMS_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "cannot open programs/" << file;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The source of every golden case, by name.
std::string sourceOf(const std::string& name) {
  if (name.rfind("programs/", 0) == 0) return readProgram(name.substr(9));
  if (name.rfind("simple", 0) == 0)
    return workloads::simpleSource(std::stoi(name.substr(6)), 1);
  if (name.rfind("livermore", 0) == 0)
    return workloads::livermoreSource(std::stoi(name.substr(9)), 64);
  if (name == "stencil16x2") return workloads::stencilSource(16, 2);
  ADD_FAILURE() << "no source for " << name;
  return "";
}

std::uint64_t translationHash(const std::string& source, CompileOptions opts) {
  CompileResult cr = compile(source, opts);
  EXPECT_TRUE(cr.ok) << cr.diagnostics;
  if (!cr.ok) return 0;
  const std::string text = cr.compiled->program.disasm() +
                           cr.compiled->plan.describe(cr.compiled->graph);
  return proto::ctl::fnv1a(reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size());
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(h));
  return buf;
}

// fnv1a(SpProgram::disasm() + Plan::describe()) under default options.
constexpr Golden kGoldens[] = {
    {"programs/dotprod.idl", 0xeedbee26dd527be8ull},
    {"programs/heat.idl", 0xda9ae93df5527556ull},
    {"programs/pascal.idl", 0x18aa00a4b627f016ull},
    {"programs/quadrature.idl", 0x81d9ab8e897f8214ull},
    {"simple16", 0xaa2c8e6dbe7972abull},
    {"simple64", 0x072aeba6a56d52dcull},
    {"livermore1", 0xc2fb3a1377e447d8ull},
    {"livermore3", 0xbed9cebbef63237bull},
    {"livermore5", 0xb727eced98ec4818ull},
    {"livermore7", 0x27fcc2cd23e71a38ull},
    {"livermore11", 0x9c5e2f9754dfa5e5ull},
    {"livermore12", 0xfdf1bc00c7aeaec7ull},
    {"stencil16x2", 0x6069b4c24eb2717cull},
};

TEST(TranslateGolden, DisasmAndPlanHashesAreUnchanged) {
  for (const Golden& g : kGoldens) {
    EXPECT_EQ(hex(translationHash(sourceOf(g.name), {})), hex(g.hash))
        << g.name;
  }
}

// The all-local and block-range translations take paths the default plan
// does not (ALLOC without distribution; BLKLO/BLKHI Range Filters).
TEST(TranslateGolden, AllLocalAndBlockRangeHashesAreUnchanged) {
  const std::string src = workloads::simpleSource(16, 1);
  CompileOptions local;
  local.distribute = false;
  CompileOptions block;
  block.forceBlockRange = true;
  EXPECT_EQ(hex(translationHash(src, local)), hex(0xcd59249d9e9024edull));
  EXPECT_EQ(hex(translationHash(src, block)), hex(0x4c12dc29969855e2ull));
}

TEST(TranslateGolden, CoversEveryLivermoreKernel) {
  for (const workloads::LivermoreKernel& k : workloads::livermoreKernels()) {
    const std::string name = "livermore" + std::to_string(k.number);
    bool found = false;
    for (const Golden& g : kGoldens) found = found || name == g.name;
    EXPECT_TRUE(found) << name;
  }
}

}  // namespace
}  // namespace pods
