// Run-length encoding of FM bitmap banks, after Palmer et al.'s ANF tool
// [17]. The paper relies on this codec to fit 40 32-bit Sum synopses into a
// single 48-byte TinyDB message; we use it for message-size (and therefore
// energy) accounting.
//
// An FM bitmap is, with high probability, a prefix of ones, a short noisy
// "fringe", then zeros, and every bitmap of a bank fills to a similar
// level. The bank codec (EncodeBankRle / BankRleBytes) exploits both: it
// transposes the bank to bit-position-major order and run-length encodes
// the result, so a populated bank costs a few gamma-coded runs.
//
// The codec is the message-size unit of every simulated epoch, so it runs
// word-at-a-time: the bank is transposed into a position-major
// 64-bit-word stream once, and runs are scanned with countr_one /
// countr_zero instead of a div/mod per bit. The size-only and encoding
// paths share the one run-scanning core.
#ifndef TD_SKETCH_RLE_H_
#define TD_SKETCH_RLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace td {

/// Append-only bit stream writer (LSB-first within bytes).
class BitWriter {
 public:
  void WriteBit(bool bit);
  /// Writes the low `nbits` of `value`, LSB first. nbits in [0, 64].
  void WriteBits(uint64_t value, int nbits);
  /// Elias-gamma code for n >= 1 (floor(log2 n) zeros, then n MSB-first).
  void WriteGamma(uint64_t n);

  size_t bit_count() const { return bit_count_; }
  size_t ByteCount() const { return (bit_count_ + 7) / 8; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// Reader matching BitWriter's layout.
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  /// CHECK-fails past the end of the stream.
  bool ReadBit();
  bool AtEnd() const { return pos_ >= bytes_.size() * 8; }

  /// Non-aborting readers for decoding untrusted input: return false
  /// instead of CHECK-failing when the stream ends mid-value.
  bool TryReadBit(bool* out);
  bool TryReadGamma(uint64_t* out);

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

/// Bank codec: the whole bitmap bank transposed to bit-position-major order
/// and run-length encoded with Elias-gamma lengths. Because all FM bitmaps
/// in a bank fill to a similar level, the transposed stream is long runs of
/// ones (low positions), long runs of zeros (high positions), and a short
/// mixed fringe -- this is what lets a 40-bitmap Sum synopsis bank fit a
/// single 48-byte TinyDB message as the paper reports. Lossless.
std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps);

/// Inverse of EncodeBankRle; `count` is the number of bitmaps. Corrupt
/// input is a checked error, not a silent truncation: a run that overruns
/// the bank returns OutOfRange, a stream that ends mid-code returns
/// InvalidArgument.
StatusOr<std::vector<uint32_t>> DecodeBankRle(const std::vector<uint8_t>& bytes,
                                              size_t count);

/// Encoded size in bytes of the bank codec.
size_t BankRleBytes(const std::vector<uint32_t>& bitmaps);

/// Span form of BankRleBytes for callers that hold a bank as a slice of a
/// larger arena (the SoA engine core keeps every node's bank in one
/// contiguous position-major array); sizing a slot must not force a copy
/// into a temporary vector. Bit-identical to the vector overload.
size_t BankRleBytes(const uint32_t* bitmaps, size_t count);

}  // namespace td

#endif  // TD_SKETCH_RLE_H_
