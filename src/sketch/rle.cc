#include "sketch/rle.h"

#include <bit>

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

void BitWriter::WriteBit(bool bit) {
  size_t byte = bit_count_ / 8;
  if (byte >= bytes_.size()) bytes_.push_back(0);
  if (bit) bytes_[byte] |= static_cast<uint8_t>(1u << (bit_count_ % 8));
  ++bit_count_;
}

void BitWriter::WriteBits(uint64_t value, int nbits) {
  TD_CHECK_GE(nbits, 0);
  TD_CHECK_LE(nbits, 64);
  // Byte-at-a-time: OR up to 8 bits into the current partial byte per step.
  while (nbits > 0) {
    size_t byte = bit_count_ / 8;
    int off = static_cast<int>(bit_count_ % 8);
    if (byte >= bytes_.size()) bytes_.push_back(0);
    int take = 8 - off;
    if (take > nbits) take = nbits;
    bytes_[byte] |= static_cast<uint8_t>((value & ((1u << take) - 1)) << off);
    value >>= take;
    nbits -= take;
    bit_count_ += static_cast<size_t>(take);
  }
}

void BitWriter::WriteGamma(uint64_t n) {
  TD_CHECK_GE(n, 1u);
  int len = 63 - std::countl_zero(n);  // floor(log2 n)
  // len zeros, then the len+1 bits of n MSB-first. The stream is LSB-first,
  // so MSB-first emission is WriteBits of the bit-reversed value.
  WriteBits(0, len);
  uint64_t rev = 0;
  for (int i = 0; i <= len; ++i) rev |= ((n >> i) & 1) << (len - i);
  WriteBits(rev, len + 1);
}

bool BitReader::ReadBit() {
  TD_CHECK(!AtEnd());
  bool bit = (bytes_[pos_ / 8] >> (pos_ % 8)) & 1;
  ++pos_;
  return bit;
}

bool BitReader::TryReadBit(bool* out) {
  if (AtEnd()) return false;
  *out = ReadBit();
  return true;
}

bool BitReader::TryReadGamma(uint64_t* out) {
  int len = 0;
  bool bit;
  for (;;) {
    if (!TryReadBit(&bit)) return false;
    if (bit) break;
    // A 64-bit value has at most 63 leading zeros in its gamma code; more
    // means the value would wrap modulo 2^64 -- malformed, not decodable.
    if (++len > 63) return false;
  }
  uint64_t n = 1;
  for (int i = 0; i < len; ++i) {
    if (!TryReadBit(&bit)) return false;
    n = (n << 1) | (bit ? 1 : 0);
  }
  *out = n;
  return true;
}

namespace {

// The bank codec's hot core. The bank is transposed once into a
// position-major bit stream (bit index pos*count + j holds bit `pos` of
// bitmaps[j]), packed LSB-first into 64-bit words; runs are then scanned a
// word at a time with countr_one. Transposition iterates only the *set*
// bits of each bitmap (a populated FM bitmap has ~log2(n) of 32 set), so
// the whole pass is far below one operation per bank bit.

// Reusable transposition buffer: BankRleBytes runs once or twice per
// simulated message, so the words must not be reallocated per call.
std::vector<uint64_t>& TransposeScratch() {
  thread_local std::vector<uint64_t> words;
  return words;
}

void TransposeBank(const uint32_t* bitmaps, size_t count,
                   std::vector<uint64_t>* words) {
  const size_t total = count * 32;
  words->assign((total + 63) / 64, 0);
  for (size_t j = 0; j < count; ++j) {
    uint32_t bm = bitmaps[j];
    while (bm != 0) {
      int pos = std::countr_zero(bm);
      bm &= bm - 1;
      size_t idx = static_cast<size_t>(pos) * count + j;
      (*words)[idx >> 6] |= 1ULL << (idx & 63);
    }
  }
}

/// Calls fn(run_length) for each maximal run of equal bits in the first
/// `total` bits of `words`, in stream order; the first run's bit value is
/// words[0] & 1 and values alternate from there. Bits at index >= total
/// must be zero (TransposeBank guarantees this).
template <typename Fn>
void ScanRuns(const std::vector<uint64_t>& words, size_t total, Fn&& fn) {
  if (total == 0) return;
  bool current = words[0] & 1;
  size_t i = 0;
  while (i < total) {
    const size_t start = i;
    for (;;) {
      const size_t w = i >> 6;
      const int off = static_cast<int>(i & 63);
      uint64_t chunk = words[w] >> off;
      if (!current) chunk = ~chunk;
      const size_t match = static_cast<size_t>(std::countr_one(chunk));
      const size_t avail = 64 - static_cast<size_t>(off);
      if (match < avail) {
        i += match;
        break;
      }
      i += avail;
      if (i >= total || (i >> 6) >= words.size()) break;
    }
    if (i > total) i = total;  // a zero run may spill into padding bits
    fn(i - start);
    current = !current;
  }
}

inline size_t GammaBits(uint64_t n) {
  int len = 63 - std::countl_zero(n);
  return static_cast<size_t>(2 * len + 1);
}

// Sets bits [begin, end) of the packed word array.
void SetBitRange(std::vector<uint64_t>* words, size_t begin, size_t end) {
  if (begin >= end) return;
  const size_t wb = begin >> 6;
  const size_t we = (end - 1) >> 6;
  const uint64_t first = ~0ULL << (begin & 63);
  const uint64_t last = ~0ULL >> (63 - ((end - 1) & 63));
  if (wb == we) {
    (*words)[wb] |= first & last;
    return;
  }
  (*words)[wb] |= first;
  for (size_t w = wb + 1; w < we; ++w) (*words)[w] = ~0ULL;
  (*words)[we] |= last;
}

}  // namespace

std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps) {
  TD_PROFILE_SCOPE(obs::Phase::kRleEncode);
  BitWriter w;
  if (bitmaps.empty()) return w.bytes();
  std::vector<uint64_t>& words = TransposeScratch();
  TransposeBank(bitmaps.data(), bitmaps.size(), &words);
  w.WriteBit(words[0] & 1);
  ScanRuns(words, bitmaps.size() * 32, [&w](uint64_t run) { w.WriteGamma(run); });
  return w.bytes();
}

StatusOr<std::vector<uint32_t>> DecodeBankRle(const std::vector<uint8_t>& bytes,
                                              size_t count) {
  std::vector<uint32_t> bitmaps(count, 0u);
  if (count == 0) return bitmaps;
  BitReader r(bytes);
  const size_t total = count * 32;
  bool current;
  if (!r.TryReadBit(&current)) {
    return Status::InvalidArgument("bank RLE: empty stream");
  }
  // Rebuild the transposed word stream run by run, then un-transpose by
  // iterating only the set bits.
  std::vector<uint64_t> words((total + 63) / 64, 0);
  size_t i = 0;
  while (i < total) {
    uint64_t run;
    if (!r.TryReadGamma(&run)) {
      return Status::InvalidArgument("bank RLE: stream ends mid-run");
    }
    if (run > total - i) {
      return Status::OutOfRange("bank RLE: run overruns the bank");
    }
    if (current) SetBitRange(&words, i, i + static_cast<size_t>(run));
    i += static_cast<size_t>(run);
    current = !current;
  }
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      size_t idx = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      bitmaps[idx % count] |= (1u << (idx / count));
    }
  }
  return bitmaps;
}

size_t BankRleBytes(const std::vector<uint32_t>& bitmaps) {
  return BankRleBytes(bitmaps.data(), bitmaps.size());
}

size_t BankRleBytes(const uint32_t* bitmaps, size_t count) {
  if (count == 0) return 0;
  std::vector<uint64_t>& words = TransposeScratch();
  TransposeBank(bitmaps, count, &words);
  size_t bits = 1;
  ScanRuns(words, count * 32,
           [&bits](uint64_t run) { bits += GammaBits(run); });
  return (bits + 7) / 8;
}

}  // namespace td
