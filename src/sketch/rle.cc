#include "sketch/rle.h"

#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

// The bank codec's hot core, column by column. Column p of the bank is bit
// p of every bitmap, and the position-major stream is the 32 columns
// concatenated. A populated FM bank has a shared prefix of all-ones
// columns and a shared tail of all-zero columns; each collapses to one
// constant run, read off the bank's AND and OR. Only the fringe columns in
// between are gathered, 64 bitmaps to a mask, and a mask's runs are
// visited through its transition bits -- one step per run, not per bit.
// Calls fn(run_length) for each maximal run of equal bits in stream order;
// the first run's bit value is bitmaps[0] & 1 and values alternate.
// Requires count >= 1.
template <typename Fn>
void ForEachBankRun(const uint32_t* bitmaps, size_t count, Fn&& fn) {
  uint32_t all = ~0u;
  uint32_t any = 0;
  for (size_t j = 0; j < count; ++j) {
    all &= bitmaps[j];
    any |= bitmaps[j];
  }
  const int lo = std::countr_one(all);  // columns [0, lo) are all ones
  const int hi = std::bit_width(any);   // columns [hi, 32) are all zeros

  // The open run: its bit value and its length so far, which starts as the
  // all-ones prefix (when lo > 0, bitmaps[0] & 1 is one of its bits).
  uint64_t cur = bitmaps[0] & 1;
  uint64_t len = static_cast<uint64_t>(lo) * count;
  for (int p = lo; p < hi; ++p) {
    for (size_t j0 = 0; j0 < count; j0 += 64) {
      const size_t n = count - j0 < 64 ? count - j0 : 64;
      const uint32_t* chunk = bitmaps + j0;
      // Gather bit p of chunk[0, n) into mask bits [0, n).
      uint64_t bits = 0;
      size_t k = 0;
#if defined(__SSE2__)
      // Shift bit p into each lane's sign bit; movemask reads four lanes.
      const __m128i shift = _mm_cvtsi32_si128(31 - p);
      for (; k + 4 <= n; k += 4) {
        __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(chunk + k));
        v = _mm_sll_epi32(v, shift);
        bits |= static_cast<uint64_t>(_mm_movemask_ps(_mm_castsi128_ps(v)))
                << k;
      }
#endif
      for (; k < n; ++k) {
        bits |= static_cast<uint64_t>((chunk[k] >> p) & 1) << k;
      }
      // Bit t of `flips` is set where stream bit t differs from bit t-1.
      const uint64_t valid = n == 64 ? ~0ULL : (1ULL << n) - 1;
      uint64_t flips = (bits ^ ((bits << 1) | cur)) & valid;
      size_t start = 0;  // where the open run entered this chunk
      while (flips != 0) {
        const size_t t = static_cast<size_t>(std::countr_zero(flips));
        flips &= flips - 1;
        fn(len + (t - start));
        len = 0;
        start = t;
      }
      len += n - start;
      cur = (bits >> (n - 1)) & 1;
    }
  }
  if (hi < 32) {
    const uint64_t zeros = static_cast<uint64_t>(32 - hi) * count;
    if (cur != 0) {
      fn(len);
      len = 0;
    }
    len += zeros;
  }
  fn(len);
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
  w.WriteBit(bitmaps[0] & 1);
  ForEachBankRun(bitmaps.data(), bitmaps.size(),
                 [&w](uint64_t run) { w.WriteGamma(run); });
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
  size_t bits = 1;
  ForEachBankRun(bitmaps, count,
                 [&bits](uint64_t run) { bits += GammaBits(run); });
  return (bits + 7) / 8;
}

}  // namespace td
