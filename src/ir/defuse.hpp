// Def/use sets over graph items — the arc structure of the dataflow graph.
// Shared by the verifier, the LCD analysis, the partition planner, and the
// PODS Translator's topological ordering step.
//
// The uses of a region item (If or Loop) depend on its whole subtree. DefUse
// computes them once per region, bottom-up, so that asking for the uses of
// every item of every block of a function costs time linear in the function
// rather than re-walking each subtree once per enclosing block.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/graph.hpp"

namespace pods::ir {

/// The def/use sets of every If and Loop region below a root, computed in one
/// bottom-up pass. Queries on items outside the indexed subtree are a bug
/// (PODS_CHECK). The table holds pointers into the IR: it is valid only while
/// the indexed blocks are alive and unchanged.
class DefUse {
 public:
  /// Indexes every region of a function body; ValIds are dense in
  /// [0, fn.numVals).
  explicit DefUse(const Function& fn);
  /// Indexes every region below `root` (and `root` itself when it is a loop).
  explicit DefUse(const Block& root);
  /// Indexes every region below one item (and the item itself).
  explicit DefUse(const Item& root);
  /// Indexes every region below the items of one list.
  explicit DefUse(const std::vector<Item>& items);

  /// External uses of a loop block: every value its subtree reads that no
  /// part of the subtree defines, first occurrences in item order. These are
  /// exactly the tokens the parent must send through the (possibly
  /// distributing) L operator.
  const std::vector<ValId>& externalUses(const Block& loop) const;

  /// Calls fn(v) for each value `item` (including any nested region) may
  /// read that is not produced inside it, in item order, duplicates kept.
  /// For Loop items this includes the loop bounds and carry initializers,
  /// which the parent computes and sends through L.
  template <typename F>
  void forEachUse(const Item& item, F&& fn) const;

  /// Calls fn(v) for each value an item makes available to subsequent items
  /// in the same list. For If items these are the values both arms define
  /// (merge values); for Loop items it is the yield value (if any).
  template <typename F>
  void forEachDef(const Item& item, F&& fn) const;

 private:
  struct IfSets {
    std::vector<ValId> uses;  // cond, then the arms' reads they don't define
    std::vector<ValId> defs;  // everything the arms define, then-arm first
  };

  void indexList(const std::vector<Item>& items);
  void indexItem(const Item& item);
  void indexBlock(const Block& b);
  void indexIf(const IfItem& ifi);
  void indexLoop(const Block& loop);

  /// Epoch marks over ValIds: mark(v) puts v in the current set, nextSet()
  /// empties it in O(1).
  void nextSet() { ++epoch_; }
  void mark(ValId v);
  bool marked(ValId v) const;
  void markListDefs(const std::vector<Item>& items);

  const IfSets& ifSets(const IfItem& ifi) const;

  std::unordered_map<const IfItem*, IfSets> ifs_;
  std::unordered_map<const Block*, std::vector<ValId>> loops_;
  std::vector<std::uint32_t> marks_;  // ValId -> epoch it was last marked in
  std::uint32_t noValMark_ = 0;       // the same for kNoVal
  std::uint32_t epoch_ = 0;
};

template <typename F>
void DefUse::forEachUse(const Item& item, F&& fn) const {
  switch (item.kind) {
    case ItemKind::Node:
      for (std::uint8_t i = 0; i < item.node.nin; ++i)
        if (item.node.in[i] != kNoVal) fn(item.node.in[i]);
      break;
    case ItemKind::If:
      for (ValId v : ifSets(*item.ifi).uses) fn(v);
      break;
    case ItemKind::Call:
      for (ValId a : item.call->args) fn(a);
      break;
    case ItemKind::Loop: {
      const Block& b = *item.loop;
      if (b.initVal != kNoVal) fn(b.initVal);
      if (b.limitVal != kNoVal) fn(b.limitVal);
      for (const Carried& c : b.carried) fn(c.init);
      for (ValId v : externalUses(b)) fn(v);
      break;
    }
    case ItemKind::Next:
      fn(item.nextVal);
      break;
  }
}

template <typename F>
void DefUse::forEachDef(const Item& item, F&& fn) const {
  switch (item.kind) {
    case ItemKind::Node:
      if (item.node.dst != kNoVal) fn(item.node.dst);
      break;
    case ItemKind::If:
      for (ValId v : ifSets(*item.ifi).defs) fn(v);
      break;
    case ItemKind::Call:
      if (item.call->dst != kNoVal) fn(item.call->dst);
      break;
    case ItemKind::Loop:
      if (item.loop->yieldVal != kNoVal) fn(item.loop->yieldVal);
      break;
    case ItemKind::Next:
      break;  // writes the block-level shadow, not a new value
  }
}

/// forEachUse() of one item into `out`, without a table: indexes the item's subtree first
/// (linear in its size). Callers that ask about many items of one function
/// should build a DefUse once instead.
void itemUses(const Item& item, std::vector<ValId>& out);

/// forEachDef() of one item into `out`, without a table (walks If arms; linear in their size).
void itemDefs(const Item& item, std::vector<ValId>& out);

/// externalUses() of one loop block, without a table (linear in its subtree).
std::vector<ValId> blockExternalUses(const Block& b);

}  // namespace pods::ir
