// Flat structure-of-arrays building blocks for the SoA engine core
// (src/core/): a position-major bitmap-bank arena, CSR ring adjacency, and
// packed per-edge/per-node bitsets. Per-node payload objects with a
// ground-truth NodeSet per inbox would cost O(n^2) bits of coverage state
// and one heap hop per fuse, capping epochs around 10k-100k nodes. These
// layouts hold the epoch state in a handful of contiguous arrays so ring
// sweeps become word-wide OR loops the compiler autovectorizes, and
// coverage becomes one delivered bit per edge plus an O(n + E)
// reachability pass.
#ifndef TD_CORE_SOA_LAYOUT_H_
#define TD_CORE_SOA_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "net/connectivity.h"
#include "topology/rings.h"
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

/// Packed bitset with reset-in-place semantics; used for per-edge delivered
/// flags and per-node contributed/reached flags.
class BitVec {
 public:
  /// (Re)sizes to `n` bits, all zero; reuses the allocation when possible.
  void Reset(size_t n) {
    n_ = n;
    const size_t words = (n + 63) / 64;
    if (words_.size() == words) {
      std::memset(words_.data(), 0, words * sizeof(uint64_t));
    } else {
      words_.assign(words, 0);
    }
  }

  void Set(size_t i) {
    TD_DCHECK(i < n_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }
  bool Test(size_t i) const {
    TD_DCHECK(i < n_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

/// The rings' upstream adjacency in CSR form: for node v, the neighbors
/// exactly one ring closer to the base, in Rings::UpstreamNeighbors order
/// (ascending node id -- Connectivity adjacency is sorted). Precomputing
/// this once replaces the per-node per-epoch vector UpstreamNeighbors
/// allocates, and gives every directed upstream edge a dense index for the
/// delivered-bit coverage pass.
struct UpstreamCsr {
  std::vector<uint32_t> offsets;  // size n + 1
  std::vector<NodeId> targets;    // size num_edges()

  size_t num_edges() const { return targets.size(); }

  /// Builds the CSR from the current rings/connectivity; called at engine
  /// construction and again from OnTopologyChanged after in-place repairs.
  void Build(const Rings& rings, const Connectivity& connectivity);
};

}  // namespace td

#endif  // TD_CORE_SOA_LAYOUT_H_
