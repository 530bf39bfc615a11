// Def/use sets of graph items, computed once per region (see defuse.hpp).
#include "ir/defuse.hpp"

#include "support/check.hpp"

namespace pods::ir {

DefUse::DefUse(const Function& fn) {
  marks_.assign(fn.numVals, 0);
  indexBlock(fn.body);
}

DefUse::DefUse(const Block& root) { indexBlock(root); }

DefUse::DefUse(const Item& root) { indexItem(root); }

DefUse::DefUse(const std::vector<Item>& items) { indexList(items); }

void DefUse::indexList(const std::vector<Item>& items) {
  for (const Item& it : items) indexItem(it);
}

void DefUse::indexItem(const Item& item) {
  if (item.kind == ItemKind::If) {
    indexList(item.ifi->thenItems);
    indexList(item.ifi->elseItems);
    indexIf(*item.ifi);
  } else if (item.kind == ItemKind::Loop) {
    indexBlock(*item.loop);
  }
}

void DefUse::indexBlock(const Block& b) {
  indexList(b.condItems);
  indexList(b.body);
  indexList(b.finalItems);
  if (b.isLoop()) indexLoop(b);
}

// Both arms are indexed: their items' sets are final.
void DefUse::indexIf(const IfItem& ifi) {
  IfSets s;
  auto addDef = [&](ValId v) { s.defs.push_back(v); };
  for (const Item& it : ifi.thenItems) forEachDef(it, addDef);
  for (const Item& it : ifi.elseItems) forEachDef(it, addDef);
  nextSet();
  for (ValId v : s.defs) mark(v);
  s.uses.push_back(ifi.cond);
  auto addUse = [&](ValId v) {
    if (!marked(v)) s.uses.push_back(v);
  };
  for (const Item& it : ifi.thenItems) forEachUse(it, addUse);
  for (const Item& it : ifi.elseItems) forEachUse(it, addUse);
  ifs_.emplace(&ifi, std::move(s));
}

// Every region inside the loop is indexed: its items' sets are final.
void DefUse::indexLoop(const Block& loop) {
  nextSet();
  if (loop.indexVal != kNoVal) mark(loop.indexVal);
  for (const Carried& c : loop.carried) {
    mark(c.cur);
    mark(c.shadow);
  }
  markListDefs(loop.condItems);
  markListDefs(loop.body);
  markListDefs(loop.finalItems);
  // A value defined in the subtree, or already taken, is marked.
  std::vector<ValId> ext;
  auto take = [&](ValId v) {
    if (marked(v)) return;
    mark(v);
    ext.push_back(v);
  };
  for (const Item& it : loop.condItems) forEachUse(it, take);
  for (const Item& it : loop.body) forEachUse(it, take);
  for (const Item& it : loop.finalItems) forEachUse(it, take);
  if (loop.condVal != kNoVal) take(loop.condVal);
  if (loop.yieldVal != kNoVal) take(loop.yieldVal);
  loops_.emplace(&loop, std::move(ext));
}

void DefUse::mark(ValId v) {
  if (v == kNoVal) {
    noValMark_ = epoch_;
    return;
  }
  if (v >= marks_.size()) marks_.resize(static_cast<std::size_t>(v) + 1, 0);
  marks_[v] = epoch_;
}

bool DefUse::marked(ValId v) const {
  if (v == kNoVal) return noValMark_ == epoch_;
  return v < marks_.size() && marks_[v] == epoch_;
}

void DefUse::markListDefs(const std::vector<Item>& items) {
  for (const Item& it : items) forEachDef(it, [&](ValId v) { mark(v); });
}

const DefUse::IfSets& DefUse::ifSets(const IfItem& ifi) const {
  auto it = ifs_.find(&ifi);
  PODS_CHECK_MSG(it != ifs_.end(), "if item outside the indexed subtree");
  return it->second;
}

const std::vector<ValId>& DefUse::externalUses(const Block& loop) const {
  auto it = loops_.find(&loop);
  PODS_CHECK_MSG(it != loops_.end(), "loop block outside the indexed subtree");
  return it->second;
}

void itemUses(const Item& item, std::vector<ValId>& out) {
  DefUse(item).forEachUse(item, [&](ValId v) { out.push_back(v); });
}

void itemDefs(const Item& item, std::vector<ValId>& out) {
  switch (item.kind) {
    case ItemKind::Node:
      if (item.node.dst != kNoVal) out.push_back(item.node.dst);
      break;
    case ItemKind::If:
      for (const Item& it : item.ifi->thenItems) itemDefs(it, out);
      for (const Item& it : item.ifi->elseItems) itemDefs(it, out);
      break;
    case ItemKind::Call:
      if (item.call->dst != kNoVal) out.push_back(item.call->dst);
      break;
    case ItemKind::Loop:
      if (item.loop->yieldVal != kNoVal) out.push_back(item.loop->yieldVal);
      break;
    case ItemKind::Next:
      break;  // writes the block-level shadow, not a new value
  }
}

std::vector<ValId> blockExternalUses(const Block& b) {
  return DefUse(b).externalUses(b);
}

}  // namespace pods::ir
