// Dynamic bitset keyed by node id. The simulator threads one of these
// through every message as *ground-truth metadata* (not counted against
// message size) so experiments can report the exact set of sensors whose
// readings are accounted for in an answer -- the "% contributing"
// evaluation metric of Section 4.
#ifndef TD_UTIL_NODE_SET_H_
#define TD_UTIL_NODE_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bits.h"
#include "util/check.h"

namespace td {

class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  size_t universe_size() const { return n_; }

  void Set(size_t i) {
    TD_DCHECK(i < n_);
    words_[i / 64] |= (1ULL << (i % 64));
  }

  bool Test(size_t i) const {
    TD_DCHECK(i < n_);
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void Union(const NodeSet& other) {
    TD_CHECK_EQ(n_, other.n_);
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(PopCount64(w));
    return c;
  }

  void Clear() {
    for (auto& w : words_) w = 0;
  }

  /// Re-sizes to `n` elements, all absent, reusing the allocation when it
  /// is large enough (per-epoch delivered bits, delta-cache valid bits).
  void Reset(size_t n) {
    n_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w) return false;
    }
    return true;
  }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace td

#endif  // TD_UTIL_NODE_SET_H_
