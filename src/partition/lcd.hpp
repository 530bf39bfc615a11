// Loop-carried dependency (LCD) analysis (paper section 4.2.4).
//
// The distribution algorithm distributes the outermost loop level that has no
// LCD. Thanks to the declarative source language the only possible dependency
// is a *flow* dependency through an I-structure (or an explicitly carried
// variable), and there is no aliasing through pointers — which is exactly why
// the paper calls LCD detection "considerably simplified". It also notes the
// analysis is only a heuristic: missing a dependency cannot break program
// determinacy (single assignment guarantees the result), it only affects the
// quality of the distribution choice.
//
// A for-loop with index i carries a dependency iff some (write, read) pair
// on the same I-structure inside its subtree *may* communicate across
// iterations. A pair provably does not when, at some dimension d, either
//  (a) both subscripts are i + c with the *same* c — the pair always sits in
//      the same iteration's slice, so any dependence is intra-iteration; or
//  (b) both subscripts are `base + c` for the same loop-invariant base (or
//      plain constants) with *different* offsets — the accesses can never
//      touch the same element at all (e.g. writing row `r` while reading
//      row `r-1`, with r an outer-loop index).
// Carried variables and while-loops are LCDs by definition. Calls are
// summarized interprocedurally (which array parameters a function may read
// or write) and contribute accesses of unknown shape.
#pragma once

#include <unordered_map>
#include <vector>

#include "ir/graph.hpp"

namespace pods::partition {

/// Which array parameters a function may read / write (directly or through
/// further calls). Computed to a fixpoint so recursion is handled.
struct FnSummary {
  std::vector<bool> paramRead;
  std::vector<bool> paramWrite;
};

std::vector<FnSummary> summarizeFunctions(const ir::Program& prog);

/// Per-function helper tables used by LCD analysis and the planner.
class FnTables {
 public:
  explicit FnTables(const ir::Function& fn);

  /// The node that defines a value, or nullptr (params, index vars, carried
  /// values, call results, merge values).
  const ir::Node* defNode(ir::ValId v) const;

  /// The block in whose item lists / header the value is defined; nullptr for
  /// parameters (defined at function entry).
  const ir::Block* defBlock(ir::ValId v) const;

  /// True if `v` is invariant with respect to loop `loop`: its definition is
  /// outside the loop's whole subtree.
  bool isInvariant(ir::ValId v, const ir::Block& loop) const;

  /// Resolves Mov chains (array aliases introduced by plain copies).
  ir::ValId resolve(ir::ValId v) const;

 private:
  void indexBlock(const ir::Block& b);
  void indexItems(const std::vector<ir::Item>& items, const ir::Block& owner);

  void setDef(ir::ValId v, const ir::Block& owner, const ir::Node* node);

  // By ValId (dense per function; nullptr where unknown).
  std::vector<const ir::Node*> defNode_;
  std::vector<const ir::Block*> defBlock_;
  std::unordered_map<const ir::Block*, const ir::Block*> parent_;
};

/// Subscript shape relative to a loop index.
struct AffineForm {
  enum class Kind { Affine, NotAffine } kind = Kind::NotAffine;
  std::int64_t offset = 0;  // subscript == index + offset when Affine
};

/// Classifies subscript `v` relative to `indexVal`, following constant-add/
/// subtract chains: i, i+c, c+i, i-c are Affine; anything else is NotAffine.
AffineForm affineIn(ir::ValId v, ir::ValId indexVal, const FnTables& tables);

/// Subscript shape as `base + c`: a constant, a variable plus a constant
/// offset, or unknown. Used for pairwise disjointness proofs (two accesses
/// through the same loop-invariant base with different offsets can never
/// touch the same element).
struct BaseForm {
  enum class Kind { Const, Var, Unknown } kind = Kind::Unknown;
  ir::ValId base = ir::kNoVal;  // Var
  std::int64_t offset = 0;      // Var: base + offset; Const: the value
};

BaseForm baseOf(ir::ValId v, const FnTables& tables);

/// One I-structure access found inside a loop subtree.
struct ArrayAccess {
  ir::ValId array = ir::kNoVal;  // resolved through Mov chains
  bool isWrite = false;
  int rank = 1;
  ir::ValId sub[2] = {ir::kNoVal, ir::kNoVal};
  bool shapeKnown = true;  // false for accesses hidden inside calls
};

/// Collects every array access in the loop subtree (body + cond + final,
/// nested loops included; calls expand to unknown-shape accesses using the
/// interprocedural summaries).
std::vector<ArrayAccess> collectAccesses(const ir::Block& loop,
                                         const FnTables& tables,
                                         const std::vector<FnSummary>& summaries);

/// The LCD test described above.
bool hasLoopCarriedDependency(const ir::Block& loop, const FnTables& tables,
                              const std::vector<FnSummary>& summaries);

}  // namespace pods::partition
