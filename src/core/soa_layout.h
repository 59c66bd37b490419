// The flat bitmap-bank arena of the SoA engine core (src/core/): every
// node's FM bank in one position-major uint32_t block, fused with a
// word-wide OR the compiler autovectorizes. Per-node FmSketch inboxes would
// cost one heap hop per fuse. The other flat pieces live where they are
// owned: the upstream ring adjacency (CSR) in Rings, and the per-edge and
// per-node delivered/valid bits in NodeSet.
#ifndef TD_CORE_SOA_LAYOUT_H_
#define TD_CORE_SOA_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace td {

/// ORs `count` 32-bit words of `src` into `dst`. The one fuse kernel every
/// SoA sweep runs; plain indexed loop so the compiler vectorizes it.
inline void OrWords(uint32_t* dst, const uint32_t* src, size_t count) {
  for (size_t i = 0; i < count; ++i) dst[i] |= src[i];
}

/// One contiguous uint32_t block holding `num_slots` fixed-geometry FM
/// bitmap banks (slot-major: slot i occupies words [i*W, (i+1)*W)). This is
/// the SoA replacement for std::vector<FmSketch> inboxes: clearing is one
/// memset, fusing two slots is OrWords over adjacent memory, and a slot is
/// handed to sketch code as a (pointer, count) span -- see
/// FmSketch::OrBits(const uint32_t*, size_t) and BankRleBytes's span form.
class BankArena {
 public:
  BankArena() = default;

  /// (Re)shapes to `num_slots` banks of `words_per_slot` words and zeroes
  /// everything. Reuses the allocation when the shape is unchanged.
  void Reset(size_t num_slots, size_t words_per_slot) {
    num_slots_ = num_slots;
    words_per_slot_ = words_per_slot;
    const size_t total = num_slots * words_per_slot;
    if (data_.size() == total) {
      std::memset(data_.data(), 0, total * sizeof(uint32_t));
    } else {
      data_.assign(total, 0u);
    }
  }

  uint32_t* Slot(size_t i) {
    TD_DCHECK(i < num_slots_);
    return data_.data() + i * words_per_slot_;
  }
  const uint32_t* Slot(size_t i) const {
    TD_DCHECK(i < num_slots_);
    return data_.data() + i * words_per_slot_;
  }

  size_t num_slots() const { return num_slots_; }
  size_t words_per_slot() const { return words_per_slot_; }

 private:
  size_t num_slots_ = 0;
  size_t words_per_slot_ = 0;
  std::vector<uint32_t> data_;
};

}  // namespace td

#endif  // TD_CORE_SOA_LAYOUT_H_
