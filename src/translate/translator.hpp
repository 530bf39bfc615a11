// The PODS Translator (paper section 3, Figure 3).
//
// Converts each code block of the dataflow graph into one Subcompact Process:
//
//  - instructions are ordered by their dataflow arcs so that no instruction
//    depends on data generated by an instruction lower in the sequence
//    (a stable topological sort; the graph generator's order is preserved
//    whenever it is already valid);
//  - the switch operator becomes conditional branches over a program counter;
//  - the k-bounded-loop synchronization of the original dataflow graphs has
//    no equivalent here: loop SPs iterate sequentially and child activations
//    are throttled only by data availability (a counted completion join
//    replaces the k-bounding machinery);
//  - L operators become spawn-by-token sequences (NEWCTX + SENDA), and, for
//    loops the Partitioner marked replicated, distributing LD sequences
//    (SENDD) with the Figure-5 Range-Filter clamps (RFLO/RFHI + MAX/MIN)
//    inserted in front of the index generation.
//
// The Partitioner's decisions are consumed here as a partition::Plan, so the
// emitted SP code is final (no later patching of jump targets is needed).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/defuse.hpp"
#include "ir/graph.hpp"
#include "partition/plan.hpp"
#include "runtime/isa.hpp"

namespace pods::translate {

/// Translates a verified program under the given distribution plan.
SpProgram translate(const ir::Program& prog, const partition::Plan& plan);

/// 1:1 mapping from dataflow node operations to SP opcodes (shared with the
/// baseline evaluators so both charge identical instruction costs).
Op nodeToOp(ir::NodeOp op);

/// Stable dependency-respecting ordering of item lists (the paper's
/// instruction ordering step): returns a list's items in an order where no
/// item reads a value produced by a later item. Items without dependencies
/// between them keep their original relative order, so an already-valid
/// list comes back unchanged. One orderer serves every list of a function:
/// it reads item def/use sets from `du` and keeps a producer table indexed
/// by ValId, so ordering a list costs time linear in its items' def/use
/// sets (plus a heap when the list is out of order).
class ItemOrderer {
 public:
  /// `du` must index every list given to order(); `numVals` sizes the
  /// per-value table (a larger ValId grows it).
  ItemOrderer(const ir::DefUse& du, std::uint32_t numVals);

  std::vector<const ir::Item*> order(const std::vector<ir::Item>& items);

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  const ir::DefUse& du_;
  std::vector<std::uint32_t> producer_;  // ValId -> item index; kNone between calls
  std::vector<ir::ValId> produced_;      // the entries of producer_ to reset
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;  // (from, to)
  std::vector<std::uint32_t> indeg_, succStart_, succ_, ready_;
};

/// One-off ordering of a single list (indexes its regions first). Exposed
/// for testing.
std::vector<const ir::Item*> orderItems(const std::vector<ir::Item>& items);

}  // namespace pods::translate
