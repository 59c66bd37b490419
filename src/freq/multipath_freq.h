// Multi-path frequent items (Section 6.2, Algorithm 2).
//
// The tree algorithm's Step 3 subtracts error mass from every estimate --
// but no duplicate-insensitive *subtraction* with small synopses exists.
// This algorithm avoids subtraction entirely:
//
//  * per-item counts are kept in duplicate-insensitive sum sketches (FM, as
//    in the paper's experiments [7]);
//  * instead of subtract-and-drop, an item is dropped when its estimate
//    falls below a *rising threshold* eps * n~ / log N (with slack eta > 1
//    to absorb the sketch's relative error);
//  * synopses carry a *class* i ~= log2(items represented); only same-class
//    synopses combine (Algorithm 2), so after every combine the threshold
//    has risen enough that pruning can fire again and no synopsis grows
//    beyond O(log N / eps * eta) items.
//
// Duplicate insensitivity end-to-end: all sketch insertions are keyed by
// (item, source node), so the same logical contribution arriving along two
// ring paths -- even after being fused into synopses of *different*
// classes -- ORs back into place when the base station's SE function adds
// estimates across classes with the duplicate-insensitive operator.
#ifndef TD_FREQ_MULTIPATH_FREQ_H_
#define TD_FREQ_MULTIPATH_FREQ_H_

#include <cstdint>
#include <map>

#include "freq/item_source.h"
#include "freq/summary.h"
#include "sketch/fm_sketch.h"

namespace td {

struct MultipathFreqParams {
  /// Error tolerance eps_b of the multi-path part.
  double eps = 0.01;

  /// Thresholding slack (Algorithm 2 restricts eta > 1).
  double eta = 2.0;

  /// A-priori upper bound on N (total occurrences network-wide); only its
  /// logarithm enters the threshold.
  uint64_t n_upper = 1ull << 20;

  /// Bitmaps of the per-class n~ sketch.
  int count_bitmaps = 40;

  /// Bitmaps of each per-item counter (small: the experiments use the
  /// low-overhead best-effort operator of [7], as Section 7.4.3 does).
  int item_bitmaps = 8;

  uint64_t seed = 0xf00d;

  int LogN() const;
};

/// A synopsis of one class: i ~ log2 of the number of occurrences
/// represented.
struct FreqClassSynopsis {
  int cls = 0;
  FmSketch n_sketch;                 // duplicate-insensitive occurrence count
  std::map<Item, FmSketch> counters;  // duplicate-insensitive per-item counts
};

/// A node's full partial result: at most one synopsis per class.
struct FreqSynopsisBank {
  std::map<int, FreqClassSynopsis> by_class;

  bool Empty() const { return by_class.empty(); }
};

class MultipathFreq {
 public:
  explicit MultipathFreq(MultipathFreqParams params);

  const MultipathFreqParams& params() const { return params_; }

  /// SG: count local frequencies, prune items with frequency at most
  /// i*n'*eps/logN (i = floor(log2 n')), emit a class-i synopsis.
  FreqSynopsisBank Generate(NodeId node, const ItemCounts& local) const;

  /// SF: fold every class synopsis of `from` into `into`, combining
  /// same-class synopses with Algorithm 2 (with carry: a combine that
  /// promotes its class re-combines upward).
  void Fuse(FreqSynopsisBank* into, const FreqSynopsisBank& from) const;

  /// Section 6.3 conversion: treat the tree summary's estimates as actual
  /// frequencies, apply the SG thresholding with n' = summary.n, key all
  /// insertions by the (unique) subtree root `origin`.
  FreqSynopsisBank ConvertSummary(NodeId origin, const Summary& summary) const;

  struct Evaluation {
    std::map<Item, double> counts;  // estimated frequency per item
    double total = 0.0;             // estimated N
  };

  /// SE: add per-item estimates across classes with the duplicate-
  /// insensitive operator (sketch union), then estimate.
  Evaluation Evaluate(const FreqSynopsisBank& bank) const;

  /// Serialized size of a bank for message accounting.
  size_t EncodedBytes(const FreqSynopsisBank& bank) const;

  /// An empty bank (the fusion identity).
  FreqSynopsisBank EmptyBank() const { return FreqSynopsisBank{}; }

 private:
  FreqClassSynopsis MakeClassSynopsis(int cls) const;

  /// Algorithm 2 proper: combine two same-class synopses; may promote.
  FreqClassSynopsis Combine(FreqClassSynopsis a, FreqClassSynopsis b) const;

  /// Applies the rising-threshold drop rule for a synopsis that reached
  /// estimated size n_est at class `cls`.
  void ApplyThreshold(FreqClassSynopsis* s, double n_est) const;

  void InsertWithCarry(FreqSynopsisBank* bank, FreqClassSynopsis s) const;

  MultipathFreqParams params_;
};

/// Report rule (Section 6): all items whose estimated counts exceed
/// (support - eps) * total are frequent; no false negatives under the
/// deficiency guarantee, false positives have frequency >= (s - eps) * N.
std::vector<Item> ReportFrequent(const std::map<Item, double>& counts,
                                 double total, double support, double eps);

}  // namespace td

#endif  // TD_FREQ_MULTIPATH_FREQ_H_
