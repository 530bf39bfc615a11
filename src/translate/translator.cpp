#include "translate/translator.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "ir/defuse.hpp"
#include "support/check.hpp"

namespace pods::translate {

using ir::Block;
using ir::BlockKind;
using ir::Item;
using ir::ItemKind;
using ir::kNoVal;
using ir::Node;
using ir::NodeOp;
using ir::ValId;

// ---------------------------------------------------------------------------
// Instruction ordering (the paper's topological ordering of code blocks)
// ---------------------------------------------------------------------------

ItemOrderer::ItemOrderer(const ir::DefUse& du, std::uint32_t numVals)
    : du_(du), producer_(numVals, kNone) {}

std::vector<const Item*> ItemOrderer::order(const std::vector<Item>& items) {
  const auto n = static_cast<std::uint32_t>(items.size());
  // Producer of each value within this list (the first, should two define it).
  for (std::uint32_t i = 0; i < n; ++i) {
    du_.forEachDef(items[i], [&](ValId d) {
      if (d >= producer_.size()) producer_.resize(std::size_t{d} + 1, kNone);
      if (producer_[d] != kNone) return;
      producer_[d] = i;
      produced_.push_back(d);
    });
  }
  // Arcs from producer to reader, in reader order.
  edges_.clear();
  bool forward = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    du_.forEachUse(items[i], [&](ValId u) {
      if (u >= producer_.size()) return;
      const std::uint32_t p = producer_[u];
      if (p == kNone || p == i) return;
      edges_.emplace_back(p, i);
      forward = forward && p < i;
    });
  }
  for (ValId d : produced_) producer_[d] = kNone;
  produced_.clear();

  std::vector<const Item*> out;
  out.reserve(n);
  // Kahn's algorithm below emits a list whose arcs all point forward in its
  // original order: take the common case without building the graph.
  if (forward) {
    for (const Item& it : items) out.push_back(&it);
    return out;
  }
  // Successor lists, flattened (counting sort of the arcs by producer).
  indeg_.assign(n, 0);
  succStart_.assign(std::size_t{n} + 1, 0);
  for (auto [from, to] : edges_) {
    ++succStart_[from + 1];
    ++indeg_[to];
  }
  for (std::uint32_t i = 0; i < n; ++i) succStart_[i + 1] += succStart_[i];
  succ_.resize(edges_.size());
  for (auto [from, to] : edges_) succ_[succStart_[from]++] = to;
  for (std::uint32_t i = n; i > 0; --i) succStart_[i] = succStart_[i - 1];
  succStart_[0] = 0;
  // Kahn's algorithm with a min-heap on the original index: items that are
  // mutually independent keep their original relative order.
  ready_.clear();
  for (std::uint32_t i = 0; i < n; ++i)
    if (indeg_[i] == 0) ready_.push_back(i);  // ascending: already a min-heap
  while (!ready_.empty()) {
    std::pop_heap(ready_.begin(), ready_.end(), std::greater<>());
    const std::uint32_t i = ready_.back();
    ready_.pop_back();
    out.push_back(&items[i]);
    for (std::uint32_t e = succStart_[i]; e < succStart_[i + 1]; ++e) {
      if (--indeg_[succ_[e]] == 0) {
        ready_.push_back(succ_[e]);
        std::push_heap(ready_.begin(), ready_.end(), std::greater<>());
      }
    }
  }
  PODS_CHECK_MSG(out.size() == n, "dataflow cycle inside a code block");
  return out;
}

std::vector<const Item*> orderItems(const std::vector<Item>& items) {
  const ir::DefUse du(items);
  return ItemOrderer(du, 0).order(items);
}

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

Op nodeToOp(NodeOp op) {
  switch (op) {
    case NodeOp::Const: return Op::LIT;
    case NodeOp::Mov: return Op::MOV;
    case NodeOp::Add: return Op::ADD;
    case NodeOp::Sub: return Op::SUB;
    case NodeOp::Mul: return Op::MUL;
    case NodeOp::Div: return Op::DIV;
    case NodeOp::Mod: return Op::MOD;
    case NodeOp::Pow: return Op::POW;
    case NodeOp::Min: return Op::MIN2;
    case NodeOp::Max: return Op::MAX2;
    case NodeOp::Neg: return Op::NEG;
    case NodeOp::Abs: return Op::ABS;
    case NodeOp::Sqrt: return Op::SQRT;
    case NodeOp::Exp: return Op::EXP;
    case NodeOp::Log: return Op::LOG;
    case NodeOp::Sin: return Op::SIN;
    case NodeOp::Cos: return Op::COS;
    case NodeOp::Floor: return Op::FLOOR;
    case NodeOp::CvtI: return Op::CVTI;
    case NodeOp::CvtR: return Op::CVTR;
    case NodeOp::CmpLT: return Op::CMPLT;
    case NodeOp::CmpLE: return Op::CMPLE;
    case NodeOp::CmpGT: return Op::CMPGT;
    case NodeOp::CmpGE: return Op::CMPGE;
    case NodeOp::CmpEQ: return Op::CMPEQ;
    case NodeOp::CmpNE: return Op::CMPNE;
    case NodeOp::And: return Op::AND;
    case NodeOp::Or: return Op::OR;
    case NodeOp::Not: return Op::NOT;
    case NodeOp::Alloc: return Op::ALLOC;
    case NodeOp::ARead: return Op::ARD;
    case NodeOp::AWrite: return Op::AWR;
    case NodeOp::Dim0: return Op::DIMQ;
    case NodeOp::Dim1: return Op::DIMQ;
  }
  PODS_UNREACHABLE("bad node op");
}

namespace {

/// Call-interface of one code block: where argument tokens must be sent.
struct BlockSig {
  std::uint16_t spId = 0;
  std::uint16_t argInit = kNoSlot;   // for-loop initial bound
  std::uint16_t argLimit = kNoSlot;  // for-loop final bound
  std::vector<std::uint16_t> curSlots;  // carried variables (init tokens)
  std::vector<ValId> exts;              // external values, in send order
  std::vector<std::uint16_t> extSlots;
  std::uint16_t doneCont = kNoSlot;   // continuation for the completion token
  std::uint16_t yieldCont = kNoSlot;  // continuation for the yield value
  std::uint16_t numArgs = 0;
};

struct FnSig {
  std::uint16_t spId = 0;
  std::vector<std::uint16_t> paramSlots;
  std::uint16_t retCont = kNoSlot;
};

class Translator {
 public:
  Translator(const ir::Program& prog, const partition::Plan& plan)
      : prog_(prog), plan_(plan) {}

  SpProgram run() {
    // Every block's def/use sets, computed once per function for both passes.
    defUse_.reserve(prog_.fns.size());
    for (const ir::Function& fn : prog_.fns) defUse_.emplace_back(fn);
    // Pass 1: assign SP ids and call interfaces for every code block.
    for (const ir::Function& fn : prog_.fns) {
      FnSig sig;
      sig.spId = newSpId(fn.name, SpKind::Function);
      std::uint16_t next = 0;
      for (std::size_t i = 0; i < fn.params.size(); ++i)
        sig.paramSlots.push_back(next++);
      const bool isMain = (&fn - prog_.fns.data()) ==
                          static_cast<std::ptrdiff_t>(prog_.mainIndex);
      if (!isMain && fn.retType != fe::Ty::Void) sig.retCont = next++;
      fnSigs_.push_back(sig);
      out_.sps[sig.spId].numArgs = next;
      signLoops(fn.body, defUse_[fnSigs_.size() - 1]);
    }
    // Pass 2: emit code for every block.
    for (std::size_t f = 0; f < prog_.fns.size(); ++f) {
      const ir::Function& fn = prog_.fns[f];
      FnEmit fnEmit{defUse_[f], ItemOrderer(defUse_[f], fn.numVals),
                std::vector<std::uint16_t>(fn.numVals, kNoSlot)};
      emitFunction(fn, fnSigs_[f], f == prog_.mainIndex, fnEmit);
      emitLoopsIn(fn.body, fnEmit);
    }
    out_.mainSp = fnSigs_[prog_.mainIndex].spId;
    out_.numResults =
        static_cast<int>(prog_.fns[prog_.mainIndex].retVals.size());
    return std::move(out_);
  }

 private:
  std::uint16_t newSpId(const std::string& name, SpKind kind) {
    SpCode sp;
    sp.id = static_cast<std::uint16_t>(out_.sps.size());
    sp.name = name;
    sp.kind = kind;
    out_.sps.push_back(std::move(sp));
    return out_.sps.back().id;
  }

  /// Recursively assigns SP ids + signatures for every loop block.
  void signLoops(const Block& b, const ir::DefUse& du) {
    ir::forEachItem(b, [&](const Item& it) {
      if (it.kind != ItemKind::Loop) return;
      const Block& loop = *it.loop;
      BlockSig sig;
      sig.spId = newSpId(loop.name,
                         loop.kind == BlockKind::ForLoop ? SpKind::ForLoop
                                                         : SpKind::WhileLoop);
      const partition::LoopPlan* lp = plan_.find(&loop);
      out_.sps[sig.spId].replicated = lp && lp->replicated;
      std::uint16_t next = 0;
      if (loop.kind == BlockKind::ForLoop) {
        sig.argInit = next++;
        sig.argLimit = next++;
      }
      for (std::size_t c = 0; c < loop.carried.size(); ++c)
        sig.curSlots.push_back(next++);
      sig.exts = du.externalUses(loop);
      for (std::size_t e = 0; e < sig.exts.size(); ++e)
        sig.extSlots.push_back(next++);
      sig.doneCont = next++;
      if (loop.yieldVal != kNoVal) sig.yieldCont = next++;
      sig.numArgs = next;
      out_.sps[sig.spId].numArgs = next;
      blockSigs_[&loop] = std::move(sig);
    });
  }

  // ---- per-SP emission ----------------------------------------------------

  /// Emission state shared by the SPs of one function.
  struct FnEmit {
    const ir::DefUse& du;
    ItemOrderer order;
    // ValId -> slot in the SP being emitted; kNoSlot elsewhere. Each SP
    // resets the entries it bound when it finishes.
    std::vector<std::uint16_t> slotOf;
  };

  void emitLoopsIn(const Block& b, FnEmit& fnEmit) {
    ir::forEachItem(b, [&](const Item& it) {
      if (it.kind == ItemKind::Loop) emitLoop(*it.loop, fnEmit);
    });
  }

  /// State for emitting one SP's instruction stream.
  struct Emit {
    Emit(FnEmit& f, SpCode* code) : fn(f), sp(code) {}

    FnEmit& fn;
    SpCode* sp = nullptr;
    std::vector<ValId> bound;  // the entries of fn.slotOf this SP set
    std::uint16_t nextSlot = 0;
    // Scratch registers shared within the SP.
    std::uint16_t one = kNoSlot, nspawn = kNoSlot, counter = kNoSlot,
                  ctx = kNoSlot, cont = kNoSlot, npes = kNoSlot,
                  tmp = kNoSlot;
    std::vector<std::pair<std::size_t, int>> fixups;  // (instr, label)
    std::vector<std::size_t> labels;                  // label -> pc

    std::uint16_t alloc(const std::string& name) {
      std::uint16_t s = nextSlot++;
      PODS_CHECK_MSG(nextSlot != 0, "slot overflow");
      sp->slotNames.resize(nextSlot);
      sp->slotNames[s] = name;
      return s;
    }
    /// Binds value `v` to slot `s` in this SP.
    void bind(ValId v, std::uint16_t s) {
      if (v >= fn.slotOf.size()) fn.slotOf.resize(std::size_t{v} + 1, kNoSlot);
      if (fn.slotOf[v] == kNoSlot) bound.push_back(v);
      fn.slotOf[v] = s;
    }
    /// The slot `v` is bound to, which must exist.
    std::uint16_t slotOf(ValId v) const {
      PODS_CHECK_MSG(v < fn.slotOf.size() && fn.slotOf[v] != kNoSlot,
                     "value has no slot");
      return fn.slotOf[v];
    }
    std::uint16_t slotFor(ValId v) {
      if (v < fn.slotOf.size() && fn.slotOf[v] != kNoSlot) return fn.slotOf[v];
      std::uint16_t s = alloc("%" + std::to_string(v));
      bind(v, s);
      return s;
    }
    Instr& ins(Op op) {
      sp->code.emplace_back();
      sp->code.back().op = op;
      return sp->code.back();
    }
    int newLabel() {
      labels.push_back(0);
      return static_cast<int>(labels.size()) - 1;
    }
    void place(int label) { labels[static_cast<std::size_t>(label)] = sp->code.size(); }
    void jump(Op op, int label, std::uint16_t condSlot = kNoSlot) {
      Instr& i = ins(op);
      i.a = condSlot;
      fixups.emplace_back(sp->code.size() - 1, label);
    }
    void finish() {
      for (auto& [idx, label] : fixups) {
        sp->code[idx].aux =
            static_cast<std::uint32_t>(labels[static_cast<std::size_t>(label)]);
      }
      sp->numSlots = nextSlot;
      for (ValId v : bound) fn.slotOf[v] = kNoSlot;
    }
  };

  /// Emits the common prologue scratch registers.
  void prologue(Emit& e) {
    e.one = e.alloc("$one");
    e.nspawn = e.alloc("$nspawn");
    e.counter = e.alloc("$joins");
    e.ctx = e.alloc("$ctx");
    e.cont = e.alloc("$cont");
    e.npes = e.alloc("$npes");
    e.tmp = e.alloc("$tmp");
    Instr& l1 = e.ins(Op::LIT);
    l1.dst = e.one;
    l1.imm = Value::intv(1);
    Instr& l2 = e.ins(Op::LIT);
    l2.dst = e.nspawn;
    l2.imm = Value::intv(0);
    Instr& l3 = e.ins(Op::NUMPE);
    l3.dst = e.npes;
  }

  void emitFunction(const ir::Function& fn, const FnSig& sig, bool isMain,
                    FnEmit& fnEmit) {
    Emit e(fnEmit, &out_.sps[sig.spId]);
    e.sp->code.reserve(16 + fn.retVals.size() + codeBound(fn.body.body, fnEmit.du));
    // Argument slots.
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      e.bind(fn.params[i], sig.paramSlots[i]);
      e.nextSlot = std::max<std::uint16_t>(e.nextSlot, sig.paramSlots[i] + 1);
    }
    std::uint16_t retContSlot = sig.retCont;
    if (retContSlot != kNoSlot)
      e.nextSlot = std::max<std::uint16_t>(e.nextSlot, retContSlot + 1);
    e.sp->slotNames.resize(e.nextSlot);
    for (std::size_t i = 0; i < fn.params.size(); ++i)
      e.sp->slotNames[sig.paramSlots[i]] = "arg" + std::to_string(i);
    if (retContSlot != kNoSlot) e.sp->slotNames[retContSlot] = "$retcont";

    prologue(e);
    emitItems(e, fn.body.body);

    // Join all spawned children, then deliver results.
    Instr& aw = e.ins(Op::AWAITN);
    aw.a = e.counter;
    aw.b = e.nspawn;
    if (isMain) {
      for (std::size_t r = 0; r < fn.retVals.size(); ++r) {
        Instr& res = e.ins(Op::RESULT);
        res.a = e.slotFor(fn.retVals[r]);
        res.aux = static_cast<std::uint32_t>(r);
      }
    } else if (!fn.retVals.empty()) {
      Instr& sc = e.ins(Op::SENDC);
      sc.a = e.slotFor(fn.retVals[0]);
      sc.b = retContSlot;
    }
    e.ins(Op::END);
    e.finish();
  }

  void emitLoop(const Block& loop, FnEmit& fnEmit) {
    const BlockSig& sig = blockSigs_.at(&loop);
    const partition::LoopPlan* lp = plan_.find(&loop);
    const bool replicated = lp && lp->replicated;

    Emit e(fnEmit, &out_.sps[sig.spId]);
    e.sp->code.reserve(32 + 4 * loop.carried.size() +
                       codeBound(loop.condItems, fnEmit.du) +
                       codeBound(loop.body, fnEmit.du) +
                       codeBound(loop.finalItems, fnEmit.du));
    e.nextSlot = sig.numArgs;
    e.sp->slotNames.resize(e.nextSlot);
    if (sig.argInit != kNoSlot) e.sp->slotNames[sig.argInit] = "$init";
    if (sig.argLimit != kNoSlot) e.sp->slotNames[sig.argLimit] = "$limit";
    for (std::size_t c = 0; c < loop.carried.size(); ++c) {
      e.bind(loop.carried[c].cur, sig.curSlots[c]);
      e.sp->slotNames[sig.curSlots[c]] = "cur" + std::to_string(c);
    }
    for (std::size_t x = 0; x < sig.exts.size(); ++x) {
      e.bind(sig.exts[x], sig.extSlots[x]);
      e.sp->slotNames[sig.extSlots[x]] = "ext%" + std::to_string(sig.exts[x]);
    }
    e.sp->slotNames[sig.doneCont] = "$donecont";
    if (sig.yieldCont != kNoSlot) e.sp->slotNames[sig.yieldCont] = "$yieldcont";

    prologue(e);

    // Carried shadows.
    std::vector<std::uint16_t> shadows;
    for (std::size_t c = 0; c < loop.carried.size(); ++c) {
      std::uint16_t s = e.alloc("shadow" + std::to_string(c));
      e.bind(loop.carried[c].shadow, s);
      shadows.push_back(s);
    }

    int exitLabel = e.newLabel();
    if (loop.kind == BlockKind::ForLoop) {
      std::uint16_t idx = e.slotFor(loop.indexVal);
      e.sp->slotNames[idx] = "index";
      std::uint16_t lo = sig.argInit, hi = sig.argLimit;
      if (replicated) {
        // Range Filter (Figure 5): clamp the index generation to this PE's
        // area of responsibility.
        std::uint16_t rfLo = e.alloc("$rf_lo");
        std::uint16_t rfHi = e.alloc("$rf_hi");
        emitRangeFilter(e, loop, *lp, rfLo, rfHi);
        std::uint16_t clampedLo = e.alloc("$lo");
        std::uint16_t clampedHi = e.alloc("$hi");
        // Ascending: init' = max(init, rf_lo), limit' = min(limit, rf_hi).
        // Descending loops run from high to low, so the roles swap.
        if (loop.ascending) {
          Instr& mx = e.ins(Op::MAX2);
          mx.dst = clampedLo;
          mx.a = sig.argInit;
          mx.b = rfLo;
          Instr& mn = e.ins(Op::MIN2);
          mn.dst = clampedHi;
          mn.a = sig.argLimit;
          mn.b = rfHi;
          lo = clampedLo;
          hi = clampedHi;
        } else {
          Instr& mn = e.ins(Op::MIN2);
          mn.dst = clampedLo;
          mn.a = sig.argInit;  // the high end
          mn.b = rfHi;
          Instr& mx = e.ins(Op::MAX2);
          mx.dst = clampedHi;
          mx.a = sig.argLimit;  // the low end
          mx.b = rfLo;
          lo = clampedLo;
          hi = clampedHi;
        }
      }
      // index <- lo
      Instr& mv = e.ins(Op::MOV);
      mv.dst = idx;
      mv.a = lo;
      int head = e.newLabel();
      e.place(head);
      // test: ascending index <= hi; descending index >= hi
      Instr& cmp = e.ins(loop.ascending ? Op::CMPLE : Op::CMPGE);
      cmp.dst = e.tmp;
      cmp.a = idx;
      cmp.b = hi;
      e.jump(Op::BRF, exitLabel, e.tmp);
      emitIterationBody(e, loop, shadows);
      // index +/- 1, back edge.
      Instr& step = e.ins(loop.ascending ? Op::ADD : Op::SUB);
      step.dst = idx;
      step.a = idx;
      step.b = e.one;
      e.jump(Op::JMP, head);
    } else {
      // While loop: cond items re-evaluated every iteration.
      int head = e.newLabel();
      e.place(head);
      emitItems(e, loop.condItems);
      e.jump(Op::BRF, exitLabel, e.slotFor(loop.condVal));
      emitIterationBody(e, loop, shadows);
      e.jump(Op::JMP, head);
    }
    e.place(exitLabel);

    // Join all children spawned over all iterations.
    Instr& aw = e.ins(Op::AWAITN);
    aw.a = e.counter;
    aw.b = e.nspawn;
    // Yield (computed after the loop, sees final carried values).
    emitItems(e, loop.finalItems);
    if (loop.yieldVal != kNoVal) {
      Instr& sc = e.ins(Op::SENDC);
      sc.a = e.slotFor(loop.yieldVal);
      sc.b = sig.yieldCont;
    }
    // Completion token to the parent's join counter.
    Instr& dn = e.ins(Op::ADDC);
    dn.a = e.one;
    dn.b = sig.doneCont;
    e.ins(Op::END);
    e.finish();
  }

  /// Range filter bound computation into rfLo/rfHi.
  void emitRangeFilter(Emit& e, const Block& loop,
                       const partition::LoopPlan& lp, std::uint16_t rfLo,
                       std::uint16_t rfHi) {
    switch (lp.mode) {
      case partition::RfMode::OwnedRows:
      case partition::RfMode::OwnedColsOfRow: {
        std::uint16_t arr = e.slotFor(lp.governingArray);
        std::uint16_t row = lp.mode == partition::RfMode::OwnedColsOfRow
                                ? e.slotFor(lp.rowIndexVal)
                                : kNoSlot;
        Instr& l = e.ins(Op::RFLO);
        l.dst = rfLo;
        l.a = arr;
        l.b = row;
        l.dim = static_cast<std::uint8_t>(lp.filteredDim);
        l.off = lp.offset;
        Instr& h = e.ins(Op::RFHI);
        h.dst = rfHi;
        h.a = arr;
        h.b = row;
        h.dim = static_cast<std::uint8_t>(lp.filteredDim);
        h.off = lp.offset;
        break;
      }
      case partition::RfMode::BlockRange: {
        // Even split of [min(init,limit), max(init,limit)]. Only for-loops
        // are ever replicated (while-loops always carry a dependency).
        PODS_CHECK(loop.kind == BlockKind::ForLoop);
        const BlockSig& sig = blockSigs_.at(&loop);
        std::uint16_t lo = e.alloc("$blo");
        std::uint16_t hi = e.alloc("$bhi");
        Instr& mn = e.ins(Op::MIN2);
        mn.dst = lo;
        mn.a = sig.argInit;
        mn.b = sig.argLimit;
        Instr& mx = e.ins(Op::MAX2);
        mx.dst = hi;
        mx.a = sig.argInit;
        mx.b = sig.argLimit;
        Instr& l = e.ins(Op::BLKLO);
        l.dst = rfLo;
        l.a = lo;
        l.b = hi;
        Instr& h = e.ins(Op::BLKHI);
        h.dst = rfHi;
        h.a = lo;
        h.b = hi;
        break;
      }
    }
  }

  /// One loop iteration: refresh shadows, then the (ordered) body.
  void emitIterationBody(Emit& e, const Block& loop,
                         const std::vector<std::uint16_t>& shadows) {
    for (std::size_t c = 0; c < loop.carried.size(); ++c) {
      Instr& mv = e.ins(Op::MOV);
      mv.dst = shadows[c];
      mv.a = e.slotOf(loop.carried[c].cur);
    }
    emitItems(e, loop.body, &loop);
    // Back edge: cur <- shadow.
    for (std::size_t c = 0; c < loop.carried.size(); ++c) {
      Instr& mv = e.ins(Op::MOV);
      mv.dst = e.slotOf(loop.carried[c].cur);
      mv.a = shadows[c];
    }
  }

  void emitItems(Emit& e, const std::vector<Item>& items,
                 const Block* owner = nullptr) {
    for (const Item* it : e.fn.order.order(items)) emitItem(e, *it, owner);
  }

  void emitItem(Emit& e, const Item& item, const Block* owner) {
    switch (item.kind) {
      case ItemKind::Node:
        emitNode(e, item.node);
        break;
      case ItemKind::If: {
        int elseL = e.newLabel();
        int endL = e.newLabel();
        e.jump(Op::BRF, elseL, e.slotFor(item.ifi->cond));
        emitItems(e, item.ifi->thenItems, owner);
        e.jump(Op::JMP, endL);
        e.place(elseL);
        emitItems(e, item.ifi->elseItems, owner);
        e.place(endL);
        break;
      }
      case ItemKind::Call:
        emitCall(e, *item.call);
        break;
      case ItemKind::Loop:
        emitSpawn(e, *item.loop);
        break;
      case ItemKind::Next: {
        PODS_CHECK_MSG(owner, "next outside loop body");
        Instr& mv = e.ins(Op::MOV);
        mv.dst = e.slotOf(owner->carried[item.carryIndex].shadow);
        mv.a = e.slotFor(item.nextVal);
        break;
      }
    }
  }

  void emitNode(Emit& e, const Node& n) {
    Op op = nodeToOp(n.op);
    if (op == Op::ALLOC && plan_.distributeArrays) op = Op::ALLOCD;
    Instr& i = e.ins(op);
    switch (n.op) {
      case NodeOp::Const:
        i.dst = e.slotFor(n.dst);
        i.imm = n.imm;
        break;
      case NodeOp::Alloc:
        i.dst = e.slotFor(n.dst);
        i.a = e.slotFor(n.in[0]);
        if (n.nin == 2) i.b = e.slotFor(n.in[1]);
        i.dim = n.nin;  // rank
        break;
      case NodeOp::ARead:
        i.dst = e.slotFor(n.dst);
        i.a = e.slotFor(n.in[0]);
        i.b = e.slotFor(n.in[1]);
        if (n.nin == 3) i.c = e.slotFor(n.in[2]);
        i.dim = n.nin - 1;
        break;
      case NodeOp::Dim0:
      case NodeOp::Dim1:
        i.dst = e.slotFor(n.dst);
        i.a = e.slotFor(n.in[0]);
        i.dim = n.op == NodeOp::Dim1 ? 1 : 0;
        break;
      case NodeOp::AWrite:
        // dst carries the value slot (see isa.hpp).
        i.a = e.slotFor(n.in[0]);
        i.b = e.slotFor(n.in[1]);
        if (n.nin == 4) {
          i.c = e.slotFor(n.in[2]);
          i.dst = e.slotFor(n.in[3]);
          i.dim = 2;
        } else {
          i.dst = e.slotFor(n.in[2]);
          i.dim = 1;
        }
        break;
      default:
        i.dst = e.slotFor(n.dst);
        if (n.nin >= 1) i.a = e.slotFor(n.in[0]);
        if (n.nin >= 2) i.b = e.slotFor(n.in[1]);
        break;
    }
  }

  void sendArg(Emit& e, bool replicated, std::uint16_t valueSlot,
               std::uint16_t targetSp, std::uint16_t targetSlot) {
    Instr& s = e.ins(replicated ? Op::SENDD : Op::SENDA);
    s.a = valueSlot;
    s.b = e.ctx;
    s.aux = Instr::packTarget(targetSp, targetSlot);
  }

  void emitCall(Emit& e, const ir::CallItem& call) {
    const FnSig& sig = fnSigs_[call.fnIndex];
    std::uint16_t dstSlot = kNoSlot;
    if (call.dst != kNoVal) {
      dstSlot = e.slotFor(call.dst);
      Instr& cl = e.ins(Op::CLEAR);
      cl.a = dstSlot;
    }
    Instr& nc = e.ins(Op::NEWCTX);
    nc.dst = e.ctx;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      sendArg(e, false, e.slotFor(call.args[i]), sig.spId, sig.paramSlots[i]);
    }
    if (call.dst != kNoVal) {
      PODS_CHECK(sig.retCont != kNoSlot);
      Instr& mk = e.ins(Op::MKCONT);
      mk.dst = e.cont;
      mk.aux = dstSlot;
      sendArg(e, false, e.cont, sig.spId, sig.retCont);
    }
    // Function SPs send no completion token; consumers of the result (or of
    // I-structure elements the callee writes) synchronize by presence.
  }

  void emitSpawn(Emit& e, const Block& loop) {
    const BlockSig& sig = blockSigs_.at(&loop);
    const bool replicated = out_.sps[sig.spId].replicated;
    std::uint16_t yieldDst = kNoSlot;
    if (loop.yieldVal != kNoVal) {
      yieldDst = e.slotFor(loop.yieldVal);
      Instr& cl = e.ins(Op::CLEAR);
      cl.a = yieldDst;
    }
    Instr& nc = e.ins(Op::NEWCTX);
    nc.dst = e.ctx;
    if (loop.kind == BlockKind::ForLoop) {
      sendArg(e, replicated, e.slotFor(loop.initVal), sig.spId, sig.argInit);
      sendArg(e, replicated, e.slotFor(loop.limitVal), sig.spId, sig.argLimit);
    }
    for (std::size_t c = 0; c < loop.carried.size(); ++c) {
      sendArg(e, replicated, e.slotFor(loop.carried[c].init), sig.spId,
              sig.curSlots[c]);
    }
    for (std::size_t x = 0; x < sig.exts.size(); ++x) {
      sendArg(e, replicated, e.slotFor(sig.exts[x]), sig.spId,
              sig.extSlots[x]);
    }
    // Completion continuation -> our join counter.
    Instr& mk = e.ins(Op::MKCONT);
    mk.dst = e.cont;
    mk.aux = e.counter;
    sendArg(e, replicated, e.cont, sig.spId, sig.doneCont);
    if (yieldDst != kNoSlot) {
      Instr& mky = e.ins(Op::MKCONT);
      mky.dst = e.cont;
      mky.aux = yieldDst;
      sendArg(e, replicated, e.cont, sig.spId, sig.yieldCont);
    }
    // Expected completions: one per instance; a replicated child runs one
    // instance per PE.
    Instr& add = e.ins(Op::ADD);
    add.dst = e.nspawn;
    add.a = e.nspawn;
    add.b = replicated ? e.npes : e.one;
  }

  /// An upper bound on the instructions emitItems() emits for `items`.
  static std::size_t codeBound(const std::vector<Item>& items,
                               const ir::DefUse& du) {
    std::size_t n = 0;
    for (const Item& it : items) {
      switch (it.kind) {
        case ItemKind::Node:
        case ItemKind::Next:
          n += 1;
          break;
        case ItemKind::If:
          n += 2 + codeBound(it.ifi->thenItems, du) +
               codeBound(it.ifi->elseItems, du);
          break;
        case ItemKind::Call:
          n += 4 + it.call->args.size();
          break;
        case ItemKind::Loop:
          n += 9 + it.loop->carried.size() + du.externalUses(*it.loop).size();
          break;
      }
    }
    return n;
  }

  const ir::Program& prog_;
  const partition::Plan& plan_;
  std::vector<ir::DefUse> defUse_;  // by function index
  SpProgram out_;
  std::vector<FnSig> fnSigs_;
  std::unordered_map<const Block*, BlockSig> blockSigs_;
};

}  // namespace

SpProgram translate(const ir::Program& prog, const partition::Plan& plan) {
  return Translator(prog, plan).run();
}

}  // namespace pods::translate
