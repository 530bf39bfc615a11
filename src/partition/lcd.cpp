#include "partition/lcd.hpp"

#include <algorithm>

#include "ir/defuse.hpp"

#include "support/check.hpp"

namespace pods::partition {

using ir::Block;
using ir::Item;
using ir::ItemKind;
using ir::kNoVal;
using ir::Node;
using ir::NodeOp;
using ir::ValId;

// ---------------------------------------------------------------------------
// Interprocedural read/write summaries
// ---------------------------------------------------------------------------

namespace {

/// One pass over a function body, ORing access bits into `sum` using the
/// current summaries for callees. Returns true if anything changed.
bool scanFunction(const ir::Function& fn, const std::vector<FnSummary>& all,
                  FnSummary& sum) {
  bool changed = false;
  // Parameter position of an array value (following Mov chains is overkill
  // here; parameters used as arrays are referenced directly). Functions
  // have a handful of parameters: a scan beats any table.
  auto mark = [&](ValId arr, bool write) {
    auto it = std::find(fn.params.begin(), fn.params.end(), arr);
    if (it == fn.params.end()) return;
    const auto i = static_cast<std::size_t>(it - fn.params.begin());
    auto& vec = write ? sum.paramWrite : sum.paramRead;
    if (!vec[i]) {
      vec[i] = true;
      changed = true;
    }
  };

  ir::forEachItem(fn.body, [&](const Item& item) {
    if (item.kind == ItemKind::Node) {
      const Node& n = item.node;
      if (n.op == NodeOp::ARead) mark(n.in[0], false);
      if (n.op == NodeOp::AWrite) mark(n.in[0], true);
    } else if (item.kind == ItemKind::Call) {
      const FnSummary& callee = all[item.call->fnIndex];
      for (std::size_t i = 0; i < item.call->args.size(); ++i) {
        if (i < callee.paramRead.size() && callee.paramRead[i])
          mark(item.call->args[i], false);
        if (i < callee.paramWrite.size() && callee.paramWrite[i])
          mark(item.call->args[i], true);
      }
    }
  });
  return changed;
}

}  // namespace

std::vector<FnSummary> summarizeFunctions(const ir::Program& prog) {
  std::vector<FnSummary> out(prog.fns.size());
  for (std::size_t i = 0; i < prog.fns.size(); ++i) {
    out[i].paramRead.assign(prog.fns[i].params.size(), false);
    out[i].paramWrite.assign(prog.fns[i].params.size(), false);
  }
  // Fixpoint iteration (monotone; bounded by total param count).
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < prog.fns.size(); ++i) {
      if (scanFunction(prog.fns[i], out, out[i])) changed = true;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// FnTables
// ---------------------------------------------------------------------------

FnTables::FnTables(const ir::Function& fn)
    : defNode_(fn.numVals, nullptr), defBlock_(fn.numVals, nullptr) {
  parent_[&fn.body] = nullptr;
  indexBlock(fn.body);
}

void FnTables::setDef(ValId v, const Block& owner, const Node* node) {
  if (v >= defBlock_.size()) {
    defBlock_.resize(std::size_t{v} + 1, nullptr);
    defNode_.resize(std::size_t{v} + 1, nullptr);
  }
  defBlock_[v] = &owner;
  if (node) defNode_[v] = node;
}

void FnTables::indexBlock(const Block& b) {
  if (b.indexVal != kNoVal) setDef(b.indexVal, b, nullptr);
  for (const ir::Carried& c : b.carried) {
    setDef(c.cur, b, nullptr);
    setDef(c.shadow, b, nullptr);
  }
  indexItems(b.condItems, b);
  indexItems(b.body, b);
  indexItems(b.finalItems, b);
}

void FnTables::indexItems(const std::vector<Item>& items, const Block& owner) {
  for (const Item& it : items) {
    switch (it.kind) {
      case ItemKind::Node:
        if (it.node.dst != kNoVal) setDef(it.node.dst, owner, &it.node);
        break;
      case ItemKind::If:
        // Merge values: defined in the owner block but with no single node.
        {
          std::vector<ValId> defs;
          ir::itemDefs(it, defs);
          for (ValId d : defs) setDef(d, owner, nullptr);
        }
        indexItems(it.ifi->thenItems, owner);
        indexItems(it.ifi->elseItems, owner);
        break;
      case ItemKind::Call:
        if (it.call->dst != kNoVal) setDef(it.call->dst, owner, nullptr);
        break;
      case ItemKind::Loop:
        parent_[it.loop.get()] = &owner;
        indexBlock(*it.loop);
        // The yield value is produced inside the nested block but is visible
        // to the owner; keep its defBlock as the nested block so invariance
        // checks see it as *outside* any loop that doesn't contain it.
        break;
      case ItemKind::Next:
        break;
    }
  }
}

// Note on If-items: indexItems records merge defs against the owner *before*
// descending, then the arm nodes overwrite defBlock for their own dsts with
// the same owner block — consistent either way.

const Node* FnTables::defNode(ValId v) const {
  return v < defNode_.size() ? defNode_[v] : nullptr;
}

const Block* FnTables::defBlock(ValId v) const {
  return v < defBlock_.size() ? defBlock_[v] : nullptr;
}

bool FnTables::isInvariant(ValId v, const Block& loop) const {
  const Block* b = defBlock(v);
  // Defined at function entry (parameter): invariant w.r.t. any loop.
  if (b == nullptr) return true;
  // Walk up from the defining block; if we meet `loop`, the definition is
  // inside the loop's subtree.
  for (const Block* cur = b; cur != nullptr;) {
    if (cur == &loop) return false;
    auto it = parent_.find(cur);
    cur = it == parent_.end() ? nullptr : it->second;
  }
  return true;
}

ValId FnTables::resolve(ValId v) const {
  for (int guard = 0; guard < 64; ++guard) {
    const Node* n = defNode(v);
    if (n && n->op == NodeOp::Mov) {
      v = n->in[0];
      continue;
    }
    return v;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Affine subscript analysis
// ---------------------------------------------------------------------------

AffineForm affineIn(ValId v, ValId indexVal, const FnTables& tables) {
  std::int64_t offset = 0;
  for (int guard = 0; guard < 64; ++guard) {
    if (v == indexVal) return {AffineForm::Kind::Affine, offset};
    const Node* n = tables.defNode(v);
    if (!n) return {};
    switch (n->op) {
      case NodeOp::Mov:
        v = n->in[0];
        continue;
      case NodeOp::Add: {
        const Node* lhs = tables.defNode(n->in[0]);
        const Node* rhs = tables.defNode(n->in[1]);
        if (rhs && rhs->op == NodeOp::Const && rhs->imm.isInt()) {
          offset += rhs->imm.asInt();
          v = n->in[0];
          continue;
        }
        if (lhs && lhs->op == NodeOp::Const && lhs->imm.isInt()) {
          offset += lhs->imm.asInt();
          v = n->in[1];
          continue;
        }
        return {};
      }
      case NodeOp::Sub: {
        const Node* rhs = tables.defNode(n->in[1]);
        if (rhs && rhs->op == NodeOp::Const && rhs->imm.isInt()) {
          offset -= rhs->imm.asInt();
          v = n->in[0];
          continue;
        }
        return {};
      }
      default:
        return {};
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Access collection and the LCD test
// ---------------------------------------------------------------------------

std::vector<ArrayAccess> collectAccesses(
    const Block& loop, const FnTables& tables,
    const std::vector<FnSummary>& summaries) {
  std::vector<ArrayAccess> out;
  ir::forEachItem(loop, [&](const Item& item) {
    if (item.kind == ItemKind::Node) {
      const Node& n = item.node;
      if (n.op == NodeOp::ARead || n.op == NodeOp::AWrite) {
        ArrayAccess a;
        a.array = tables.resolve(n.in[0]);
        a.isWrite = n.op == NodeOp::AWrite;
        // ARead: arr, i0 (, i1). AWrite: arr, i0 (, i1), value.
        int subCount = n.nin - 1 - (a.isWrite ? 1 : 0);
        a.rank = subCount;
        for (int i = 0; i < subCount && i < 2; ++i) a.sub[i] = n.in[1 + i];
        out.push_back(a);
      }
    } else if (item.kind == ItemKind::Call) {
      const FnSummary& callee = summaries[item.call->fnIndex];
      for (std::size_t i = 0; i < item.call->args.size(); ++i) {
        bool reads = i < callee.paramRead.size() && callee.paramRead[i];
        bool writes = i < callee.paramWrite.size() && callee.paramWrite[i];
        if (reads || writes) {
          ArrayAccess a;
          a.array = tables.resolve(item.call->args[i]);
          a.shapeKnown = false;
          if (reads) {
            a.isWrite = false;
            out.push_back(a);
          }
          if (writes) {
            a.isWrite = true;
            out.push_back(a);
          }
        }
      }
    }
  });
  return out;
}

BaseForm baseOf(ValId v, const FnTables& tables) {
  std::int64_t offset = 0;
  for (int guard = 0; guard < 64; ++guard) {
    const Node* n = tables.defNode(v);
    if (!n) return {BaseForm::Kind::Var, v, offset};  // index/param/merge/...
    switch (n->op) {
      case NodeOp::Const:
        if (!n->imm.isInt()) return {};
        return {BaseForm::Kind::Const, ir::kNoVal, offset + n->imm.asInt()};
      case NodeOp::Mov:
        v = n->in[0];
        continue;
      case NodeOp::Add: {
        const Node* lhs = tables.defNode(n->in[0]);
        const Node* rhs = tables.defNode(n->in[1]);
        if (rhs && rhs->op == NodeOp::Const && rhs->imm.isInt()) {
          offset += rhs->imm.asInt();
          v = n->in[0];
          continue;
        }
        if (lhs && lhs->op == NodeOp::Const && lhs->imm.isInt()) {
          offset += lhs->imm.asInt();
          v = n->in[1];
          continue;
        }
        return {};
      }
      case NodeOp::Sub: {
        const Node* rhs = tables.defNode(n->in[1]);
        if (rhs && rhs->op == NodeOp::Const && rhs->imm.isInt()) {
          offset -= rhs->imm.asInt();
          v = n->in[0];
          continue;
        }
        return {};
      }
      default:
        return {BaseForm::Kind::Var, v, offset};
    }
  }
  return {};
}

namespace {

/// May a dependence flow from write W to read R across iterations of `loop`?
bool pairMayCarry(const ArrayAccess& w, const ArrayAccess& r,
                  const Block& loop, const FnTables& tables) {
  if (!w.shapeKnown || !r.shapeKnown) return true;
  const int dims = std::min(w.rank, r.rank);
  for (int d = 0; d < dims; ++d) {
    // (a) Same slice of the loop's index at this dimension: any dependence
    // is within one iteration, not carried.
    AffineForm fw = affineIn(w.sub[d], loop.indexVal, tables);
    AffineForm fr = affineIn(r.sub[d], loop.indexVal, tables);
    if (fw.kind == AffineForm::Kind::Affine &&
        fr.kind == AffineForm::Kind::Affine) {
      if (fw.offset == fr.offset) return false;
      continue;  // different slices of the index: carried at this dim
    }
    // (b) Provably different coordinates at this dimension: no dependence
    // at all. Requires a common loop-invariant base (or two constants) with
    // distinct offsets.
    BaseForm bw = baseOf(w.sub[d], tables);
    BaseForm br = baseOf(r.sub[d], tables);
    if (bw.kind == BaseForm::Kind::Const && br.kind == BaseForm::Kind::Const &&
        bw.offset != br.offset) {
      return false;
    }
    if (bw.kind == BaseForm::Kind::Var && br.kind == BaseForm::Kind::Var &&
        bw.base == br.base && bw.offset != br.offset &&
        tables.isInvariant(bw.base, loop)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool hasLoopCarriedDependency(const Block& loop, const FnTables& tables,
                              const std::vector<FnSummary>& summaries) {
  // Carried variables and while-loops circulate values: LCD by definition.
  if (loop.kind == ir::BlockKind::WhileLoop) return true;
  if (!loop.carried.empty()) return true;
  PODS_CHECK(loop.kind == ir::BlockKind::ForLoop);

  std::vector<ArrayAccess> accesses = collectAccesses(loop, tables, summaries);
  for (const ArrayAccess& w : accesses) {
    if (!w.isWrite) continue;
    for (const ArrayAccess& r : accesses) {
      if (r.isWrite || r.array != w.array) continue;
      if (pairMayCarry(w, r, loop, tables)) return true;
    }
  }
  return false;
}

}  // namespace pods::partition
