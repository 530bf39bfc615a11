// The structural verifier for the dataflow graph.
#include "ir/verify.hpp"

#include <string>
#include <vector>

namespace pods::ir {

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

namespace {

class Verifier {
 public:
  Verifier(const Function& fn, std::string& err)
      : fn_(fn), err_(err), defined_(fn.numVals, 0), inElse_(fn.numVals, 0) {}

  bool run() {
    for (ValId p : fn_.params)
      if (!define(p, "parameter")) return false;
    if (!checkBlock(fn_.body)) return false;
    for (ValId r : fn_.retVals) {
      if (!isDefined(r)) return fail("return value %" + std::to_string(r) +
                                     " is never defined");
    }
    return true;
  }

 private:
  bool fail(std::string msg) {
    err_ = "ir verify (" + fn_.name + "): " + std::move(msg);
    return false;
  }

  // Every definition must be in range: later stages index flat per-value
  // tables by ValId. A value defined for the first time joins the trail, so
  // an If can take back what one arm defined.
  bool define(ValId v, const char* what) {
    if (v >= fn_.numVals)
      return fail(std::string(what) + " defines %" + std::to_string(v) +
                  " out of range");
    if (!defined_[v]) {
      defined_[v] = 1;
      trail_.push_back(v);
    }
    return true;
  }
  bool isDefined(ValId v) const { return v < fn_.numVals && defined_[v]; }

  /// Forgets every definition made since the trail was `mark` long and
  /// returns them in `out`.
  void undefineSince(std::size_t mark, std::vector<ValId>& out) {
    out.assign(trail_.begin() + static_cast<std::ptrdiff_t>(mark), trail_.end());
    for (ValId v : out) defined_[v] = 0;
    trail_.resize(mark);
  }

  bool checkVal(ValId v, const char* what) {
    if (v == kNoVal) return fail(std::string("missing ") + what);
    if (v >= fn_.numVals)
      return fail(std::string(what) + " %" + std::to_string(v) +
                  " out of range");
    if (!isDefined(v))
      return fail(std::string(what) + " %" + std::to_string(v) +
                  " used before definition");
    return true;
  }

  bool checkBlock(const Block& b) {
    if (b.kind == BlockKind::ForLoop) {
      if (!checkVal(b.initVal, "loop init") || !checkVal(b.limitVal, "loop limit"))
        return false;
      if (!define(b.indexVal, "loop index")) return false;
    }
    for (const Carried& c : b.carried) {
      if (!checkVal(c.init, "carry init")) return false;
      if (!define(c.cur, "carried value") || !define(c.shadow, "carried shadow"))
        return false;
    }
    if (b.kind == BlockKind::WhileLoop) {
      if (!checkItems(b.condItems)) return false;
      if (!checkVal(b.condVal, "while condition")) return false;
    }
    if (!checkItems(b.body)) return false;
    if (!checkItems(b.finalItems)) return false;
    if (b.yieldVal != kNoVal && !checkVal(b.yieldVal, "yield value"))
      return false;
    return true;
  }

  bool checkItems(const std::vector<Item>& items) {
    for (const Item& it : items) {
      switch (it.kind) {
        case ItemKind::Node: {
          const Node& n = it.node;
          for (std::uint8_t i = 0; i < n.nin; ++i) {
            if (!checkVal(n.in[i], "operand")) return false;
          }
          if (n.op == NodeOp::AWrite) {
            if (n.dst != kNoVal) return fail("awrite must not define a value");
          } else {
            if (n.dst == kNoVal) return fail("node missing destination");
            if (!define(n.dst, "node")) return false;
          }
          break;
        }
        case ItemKind::If: {
          if (!checkVal(it.ifi->cond, "if condition")) return false;
          // Arms check independently; merge values (defined in both arms)
          // become visible afterwards. Values defined in only one arm are
          // scoped to that arm by sema; we expose the intersection.
          const std::size_t mark = trail_.size();
          std::vector<ValId> inThen, inElse;
          if (!checkItems(it.ifi->thenItems)) return false;
          undefineSince(mark, inThen);
          if (!checkItems(it.ifi->elseItems)) return false;
          undefineSince(mark, inElse);
          for (ValId v : inElse) inElse_[v] = 1;
          for (ValId v : inThen)
            if (inElse_[v]) define(v, "merge");
          for (ValId v : inElse) inElse_[v] = 0;
          break;
        }
        case ItemKind::Call: {
          if (it.call->fnIndex >= fnCount_)
            return fail("call to unknown function index");
          for (ValId a : it.call->args) {
            if (!checkVal(a, "call argument")) return false;
          }
          if (it.call->dst != kNoVal && !define(it.call->dst, "call"))
            return false;
          break;
        }
        case ItemKind::Loop: {
          if (!checkBlock(*it.loop)) return false;
          if (it.loop->yieldVal != kNoVal &&
              !define(it.loop->yieldVal, "loop yield"))
            return false;
          break;
        }
        case ItemKind::Next: {
          if (!checkVal(it.nextVal, "next value")) return false;
          break;
        }
      }
    }
    return true;
  }

  const Function& fn_;
  std::string& err_;
  std::vector<std::uint8_t> defined_;  // by ValId
  std::vector<ValId> trail_;           // first definitions, in order
  std::vector<std::uint8_t> inElse_;   // scratch for an If's merge values

 public:
  std::size_t fnCount_ = 0;
};

}  // namespace

bool verify(const Program& prog, std::string& err) {
  for (const Function& fn : prog.fns) {
    Verifier v(fn, err);
    v.fnCount_ = prog.fns.size();
    if (!v.run()) return false;
  }
  if (prog.mainIndex >= prog.fns.size()) {
    err = "ir verify: main index out of range";
    return false;
  }
  return true;
}

}  // namespace pods::ir
