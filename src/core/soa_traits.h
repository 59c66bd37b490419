// Traits shared by the SoA engines (src/core/): which aggregates can use
// the flat FM bitmap arena, and which expose the epoch-delta identity key
// that lets unchanged nodes replay cached self state.
#ifndef TD_CORE_SOA_TRAITS_H_
#define TD_CORE_SOA_TRAITS_H_

#include <concepts>
#include <cstdint>
#include <vector>

#include "agg/aggregate.h"
#include "sketch/fm_sketch.h"
#include "util/node_set.h"

namespace td {

/// Aggregates whose synopsis IS a raw FM bitmap bank. For these, the SoA
/// engines keep every node's synopsis inbox in one BankArena and fuse with
/// OrWords, relying on two contracts every FmSketch-synopsis aggregate in
/// the registry satisfies (Count, Sum, UniqueCount):
///   * Fuse(into, from) == bitwise OR of the banks (FmSketch::Merge), and
///   * SynopsisBytes(s) == s.EncodedBytes() == BankRleBytes(bank).
/// Aggregates with composite synopses (Average's two banks, samples, query
/// sets) take the generic object-synopsis path instead.
template <typename A>
concept SoaFmSynopsis =
    Aggregate<A> && std::same_as<typename A::Synopsis, FmSketch>;

/// Aggregates that declare the epoch-delta identity key: the node's self
/// synopsis/partial is a pure function of (node, SelfSynopsisKey(node,
/// epoch)), so an unchanged key replays the cached self state instead of
/// re-hashing. Aggregates without the member (e.g. the lowered query-set
/// aggregate) recompute every node every epoch -- still correct, never
/// faster.
template <typename A>
concept SoaSelfKeyed = requires(const A a, NodeId node, uint32_t epoch) {
  { a.SelfSynopsisKey(node, epoch) } -> std::convertible_to<uint64_t>;
};

/// Delta cache for self states kept as whole objects (tree partials, and
/// synopses of non-FM aggregates). Persists across epochs; `valid` starts
/// false so the first epoch always recomputes.
template <typename State>
struct SelfStateCache {
  std::vector<State> state;
  std::vector<uint64_t> key;
  NodeSet valid;

  void Reset(size_t n, const State& empty) {
    state.assign(n, empty);
    key.assign(n, 0);
    valid.Reset(n);
  }
};

}  // namespace td

#endif  // TD_CORE_SOA_TRAITS_H_
