// Ablation: duplicate-insensitive sketch accuracy and message size.
// Quantifies Table 1's "message size" and "approximation error" columns:
// FM banks (the paper's experimental operator [7]) across bitmap counts.
// Validates the ~12% approximation error the paper quotes for 40 bitmaps
// and the 48-byte TinyDB packing.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "sketch/fm_sketch.h"
#include "util/stats.h"
#include "util/table.h"

using namespace td;

int main() {
  const uint64_t kN = 20000;
  const int kTrials = 60;

  std::printf("FM sketch banks: accuracy and encoded size vs bitmap count "
              "(n = %llu, %d trials)\n\n",
              static_cast<unsigned long long>(kN), kTrials);
  Table fm({"bitmaps", "mean_rel_err", "rel_sd", "theory_sd", "raw_bytes",
            "rle_bytes", "fits_48B_packet"});
  for (int bitmaps : {8, 16, 32, 40, 64, 128}) {
    RunningStat err;
    size_t bytes = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      FmSketch s(bitmaps, 1000 + trial);
      for (uint64_t k = 0; k < kN; ++k) s.AddKey(k);
      err.Add((s.Estimate() - static_cast<double>(kN)) / kN);
      bytes = std::max(bytes, s.EncodedBytes());
    }
    fm.AddRow({Table::Int(bitmaps), Table::Num(err.mean(), 4),
               Table::Num(err.stddev(), 4),
               Table::Num(0.78 / std::sqrt(static_cast<double>(bitmaps)), 4),
               Table::Int(bitmaps * 4), Table::Int((long long)bytes),
               bytes <= 48 ? "yes" : "no"});
  }
  fm.PrintAligned(std::cout);

  std::printf(
      "\nReading: the 40-bitmap bank used throughout the evaluation has "
      "~12%% error and fits\none 48-byte TinyDB message (Table 1's "
      "multi-path 'small message, small approximation\nerror' cell).\n");
  return 0;
}
