// Authoritative I-structure array state for the simulated machine.
//
// Thanks to single assignment an element has exactly one value ever, so the
// simulator keeps one authoritative copy of each array (the union of all
// owners' segments) plus per-PE *metadata* (headers, page caches, deferred
// queues) inside the machine. A value lands in `elems` as soon as its writer
// commits it — a remote writer commits before its forwarded notice reaches
// the owner — so the owner's presence-bit view is kept apart in `atOwner`:
// it is set only when the owner's Array Manager applies the write. Cached
// copies remember the atOwner mask snapshot taken when their page was
// shipped.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/array_layout.hpp"
#include "runtime/value.hpp"

namespace pods::sim {

struct ArrayInfo {
  ArrayId id = 0;
  ArrayShape shape{};
  bool distributed = false;
  int homePe = 0;  // owner of everything when not distributed
  ArrayLayout layout;
  std::vector<Value> elems;  // Tag::Empty == absent
  std::vector<bool> atOwner;  // owner's presence bits (see file comment)

  ArrayInfo(ArrayId i, ArrayShape s, bool dist, int home, int numPEs,
            int pageElems, const std::vector<std::int64_t>& peWeights)
      : id(i),
        shape(s),
        distributed(dist),
        homePe(home),
        layout(s, numPEs, pageElems, peWeights),
        elems(static_cast<std::size_t>(s.numElems())),
        atOwner(static_cast<std::size_t>(s.numElems()), false) {}

  int owner(std::int64_t offset) const {
    return distributed ? layout.ownerOfOffset(offset) : homePe;
  }
};

class ArrayStore {
 public:
  ArrayStore(int numPEs, int pageElems,
             std::vector<std::int64_t> peWeights = {})
      : numPEs_(numPEs),
        pageElems_(pageElems),
        peWeights_(std::move(peWeights)),
        nextId_(numPEs, 0) {}

  /// Mints a globally-unique id for an allocation initiated on `pe`
  /// (id = pe + k * numPEs, the striping that makes broadcast ids agree).
  ArrayId create(int pe, ArrayShape shape, bool distributed);

  ArrayInfo* find(ArrayId id);
  const ArrayInfo* find(ArrayId id) const;

  /// Writes an element. Returns false on a single-assignment violation
  /// (the I-structure memory "reports any attempt to rewrite a value").
  bool write(ArrayId id, std::int64_t offset, Value v);

  const std::unordered_map<ArrayId, ArrayInfo>& all() const { return arrays_; }

  int numPEs() const { return numPEs_; }
  int pageElems() const { return pageElems_; }

 private:
  int numPEs_;
  int pageElems_;
  std::vector<std::int64_t> peWeights_;  // empty = uniform layout
  std::vector<ArrayId> nextId_;
  std::unordered_map<ArrayId, ArrayInfo> arrays_;
};

}  // namespace pods::sim
