// Unit and property tests for src/sketch: FM sketches, sample synopses,
// and the RLE codec. The load-bearing property throughout is duplicate
// insensitivity: merging a synopsis with itself (or re-adding
// the same logical contribution) must not change it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <vector>

#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "sketch/sample_synopsis.h"
#include "util/rng.h"

namespace td {
namespace {

// ------------------------------------------------------------- FmSketch --

TEST(FmSketchTest, EmptyEstimatesZero) {
  FmSketch s(40, 1);
  EXPECT_TRUE(s.Empty());
  EXPECT_DOUBLE_EQ(s.Estimate(), 0.0);
}

TEST(FmSketchTest, AddKeyIdempotent) {
  FmSketch a(40, 1);
  a.AddKey(123);
  FmSketch b = a;
  b.AddKey(123);
  EXPECT_TRUE(a == b);
}

TEST(FmSketchTest, MergeIsIdempotent) {
  FmSketch a(40, 1);
  for (uint64_t k = 0; k < 100; ++k) a.AddKey(k);
  FmSketch b = a;
  b.Merge(a);
  EXPECT_TRUE(a == b);
}

TEST(FmSketchTest, MergeIsCommutative) {
  FmSketch a(40, 1), b(40, 1);
  for (uint64_t k = 0; k < 50; ++k) a.AddKey(k);
  for (uint64_t k = 25; k < 80; ++k) b.AddKey(k);
  FmSketch ab = a;
  ab.Merge(b);
  FmSketch ba = b;
  ba.Merge(a);
  EXPECT_TRUE(ab == ba);
}

TEST(FmSketchTest, MergeIsAssociative) {
  FmSketch a(16, 3), b(16, 3), c(16, 3);
  for (uint64_t k = 0; k < 30; ++k) a.AddKey(k * 3);
  for (uint64_t k = 0; k < 30; ++k) b.AddKey(k * 3 + 1);
  for (uint64_t k = 0; k < 30; ++k) c.AddKey(k * 3 + 2);
  FmSketch left = a;
  left.Merge(b);
  left.Merge(c);
  FmSketch right_bc = b;
  right_bc.Merge(c);
  FmSketch right = a;
  right.Merge(right_bc);
  EXPECT_TRUE(left == right);
}

TEST(FmSketchTest, MergeEqualsUnionOfInsertions) {
  FmSketch a(40, 9), b(40, 9), u(40, 9);
  for (uint64_t k = 0; k < 200; ++k) {
    if (k % 2 == 0) a.AddKey(k);
    if (k % 3 == 0) b.AddKey(k);
    if (k % 2 == 0 || k % 3 == 0) u.AddKey(k);
  }
  FmSketch merged = a;
  merged.Merge(b);
  EXPECT_TRUE(merged == u);
}

TEST(FmSketchTest, DistinctCountAccuracy) {
  // The estimator is unbiased with sd ~ 0.78/sqrt(40) ~ 12%; the mean over
  // trials must be well within one sd, and no single trial should be a
  // gross outlier (5 sigma).
  const uint64_t n = 5000;
  double mean = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    FmSketch s(40, 100 + trial);
    for (uint64_t k = 0; k < n; ++k) s.AddKey(k ^ (uint64_t{1} << (40 + trial % 8)));
    double est = s.Estimate();
    EXPECT_NEAR(est, static_cast<double>(n), 0.62 * n) << "trial " << trial;
    mean += est / trials;
  }
  EXPECT_NEAR(mean, static_cast<double>(n), 0.10 * n);
}

TEST(FmSketchTest, AccuracyImprovesWithMoreBitmaps) {
  // Average absolute relative error over trials must shrink as bitmaps grow.
  auto avg_err = [](int bitmaps) {
    double total = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      FmSketch s(bitmaps, 1000 + t);
      const uint64_t n = 20000;
      for (uint64_t k = 0; k < n; ++k) s.AddKey(k);
      total += std::abs(s.Estimate() - static_cast<double>(n)) / n;
    }
    return total / trials;
  };
  EXPECT_LT(avg_err(64), avg_err(4));
}

TEST(FmSketchTest, AddValueMatchesRepeatedDistinctInsertions) {
  // AddValue(key, v) must estimate ~v, like v distinct keys would.
  for (uint64_t v : {1ull, 10ull, 100ull, 10000ull}) {
    FmSketch s(40, 5);
    s.AddValue(777, v);
    double est = s.Estimate();
    EXPECT_NEAR(est, static_cast<double>(v), 0.5 * v + 3.0) << "v=" << v;
  }
}

TEST(FmSketchTest, AddValueDeterministicAndIdempotent) {
  FmSketch a(40, 5), b(40, 5);
  a.AddValue(42, 1000);
  b.AddValue(42, 1000);
  EXPECT_TRUE(a == b);
  // Duplicate-insensitivity: ORing a replayed contribution changes nothing.
  FmSketch c = a;
  c.Merge(b);
  EXPECT_TRUE(c == a);
}

TEST(FmSketchTest, AddValueZeroIsNoop) {
  FmSketch s(40, 5);
  s.AddValue(1, 0);
  EXPECT_TRUE(s.Empty());
}

TEST(FmSketchTest, SumAdditivityAcrossKeys) {
  // Sum of values across distinct keys estimates the total.
  FmSketch s(40, 6);
  uint64_t total = 0;
  Rng rng(71);
  for (uint64_t node = 1; node <= 100; ++node) {
    uint64_t v = rng.NextBounded(200);
    s.AddValue(node, v);
    total += v;
  }
  EXPECT_NEAR(s.Estimate(), static_cast<double>(total), 0.35 * total);
}

TEST(FmSketchTest, EncodedSmallerThanRaw) {
  FmSketch s(40, 7);
  for (uint64_t k = 0; k < 600; ++k) s.AddKey(k);
  EXPECT_LT(s.EncodedBytes(), s.RawBytes());
  // The paper's headline packing: 40 populated Sum synopses fit one 48-byte
  // TinyDB message (transposed bank RLE).
  EXPECT_LE(s.EncodedBytes(), 48u);
}

TEST(RleTest, BankCodecRoundtrip) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint32_t> bitmaps;
    for (int i = 0; i < 40; ++i) bitmaps.push_back(static_cast<uint32_t>(rng.Next()));
    auto bytes = EncodeBankRle(bitmaps);
    auto decoded = DecodeBankRle(bytes, 40);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), bitmaps);
    EXPECT_EQ(bytes.size(), BankRleBytes(bitmaps));
  }
  // Populated FM banks roundtrip too.
  FmSketch s(40, 9);
  for (uint64_t k = 0; k < 2000; ++k) s.AddKey(k);
  auto bytes = EncodeBankRle(s.bitmaps());
  auto decoded = DecodeBankRle(bytes, 40);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), s.bitmaps());
}

// Bit-at-a-time reference implementations of the bank codec, kept here so
// the word-level fast paths in rle.cc are pinned against the original
// semantics (same runs, same gamma codes, same byte stream).
namespace reference {

bool BankBit(const std::vector<uint32_t>& bitmaps, size_t index) {
  size_t pos = index / bitmaps.size();
  size_t j = index % bitmaps.size();
  return (bitmaps[j] >> pos) & 1;
}

std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps) {
  BitWriter w;
  if (bitmaps.empty()) return w.bytes();
  const size_t total = bitmaps.size() * 32;
  bool current = BankBit(bitmaps, 0);
  w.WriteBit(current);
  uint64_t run = 1;
  for (size_t i = 1; i < total; ++i) {
    bool bit = BankBit(bitmaps, i);
    if (bit == current) {
      ++run;
    } else {
      w.WriteGamma(run);
      current = bit;
      run = 1;
    }
  }
  w.WriteGamma(run);
  return w.bytes();
}

size_t BankRleBytes(const std::vector<uint32_t>& bitmaps) {
  if (bitmaps.empty()) return 0;
  const size_t total = bitmaps.size() * 32;
  size_t bits = 1;
  bool current = BankBit(bitmaps, 0);
  uint64_t run = 1;
  auto gamma_bits = [](uint64_t n) {
    int len = 63 - std::countl_zero(n);
    return static_cast<size_t>(2 * len + 1);
  };
  for (size_t i = 1; i < total; ++i) {
    bool bit = BankBit(bitmaps, i);
    if (bit == current) {
      ++run;
    } else {
      bits += gamma_bits(run);
      current = bit;
      run = 1;
    }
  }
  bits += gamma_bits(run);
  return (bits + 7) / 8;
}

}  // namespace reference

std::vector<uint32_t> AdversarialBank(int which, int count, Rng* rng) {
  std::vector<uint32_t> bank;
  for (int i = 0; i < count; ++i) {
    switch (which) {
      case 0:
        bank.push_back(0u);  // all-zero
        break;
      case 1:
        bank.push_back(~0u);  // all-one
        break;
      case 2:
        bank.push_back(i % 2 ? 0x55555555u : 0xaaaaaaaau);  // alternating
        break;
      case 3:
        bank.push_back(static_cast<uint32_t>(rng->Next()));  // random
        break;
      default:
        bank.push_back(static_cast<uint32_t>(rng->Next()) &
                       static_cast<uint32_t>(rng->Next()));  // sparse random
    }
  }
  return bank;
}

TEST(RleTest, BankCodecPropertyRoundtrip) {
  // Random and adversarial banks over several bank widths: encoding must
  // round-trip and BankRleBytes must always equal the encoded size.
  Rng rng(311);
  for (int count : {1, 3, 40, 64, 100}) {
    for (int which = 0; which < 5; ++which) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<uint32_t> bank = AdversarialBank(which, count, &rng);
        auto bytes = EncodeBankRle(bank);
        EXPECT_EQ(bytes.size(), BankRleBytes(bank))
            << "count=" << count << " which=" << which;
        auto decoded = DecodeBankRle(bytes, bank.size());
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value(), bank)
            << "count=" << count << " which=" << which;
      }
    }
  }
}

// Bank widths covering the four-bitmap SIMD tails and the 64-bitmap chunk
// seams of the column kernel.
constexpr int kKernelWidths[] = {1,  2,  3,  4,  5,  7,   31,  32,  33,
                                 39, 40, 41, 63, 64, 65, 100, 128, 129};

// Bank shapes at the column kernel's boundaries: an empty fringe at either
// end, a fringe of one bit, a full column inside the fringe, and a fringe
// reaching the top column.
std::vector<std::vector<uint32_t>> KernelEdgeBanks(int count) {
  const size_t n = static_cast<size_t>(count);
  std::vector<std::vector<uint32_t>> banks;
  banks.emplace_back(n, 0u);   // all zero: no column has a one
  banks.emplace_back(n, ~0u);  // all ones: every column is full
  std::vector<uint32_t> first_clear(n, ~0u);
  first_clear[0] = ~1u;  // bit 0 clear in bitmap 0 only
  banks.push_back(first_clear);
  std::vector<uint32_t> low_bit(n, 1u);
  low_bit[0] = 0u;  // same, on a bank that is otherwise one column
  banks.push_back(low_bit);
  std::vector<uint32_t> full_over_mixed(n);
  for (size_t j = 0; j < n; ++j) full_over_mixed[j] = j % 3 ? 0xbu : 0xfu;
  banks.push_back(full_over_mixed);  // column 3 full above mixed column 2
  banks.emplace_back(n, 1u << 31);   // only bit 31
  std::vector<uint32_t> one_top(n, 0u);
  one_top[n - 1] = 1u << 31;  // a single set bit, at the very end
  banks.push_back(one_top);
  return banks;
}

// A bank shaped like a populated FM bank: per bitmap, a prefix of ones, a
// few random fringe bits, zeros above. The prefix and fringe bounds are
// drawn per bank so AND/OR land anywhere in [0, 32].
std::vector<uint32_t> RandomFmShapedBank(int count, Rng* rng) {
  const int prefix = static_cast<int>(rng->NextBounded(33));
  const int fringe = static_cast<int>(rng->NextBounded(33 - prefix));
  std::vector<uint32_t> bank;
  for (int j = 0; j < count; ++j) {
    const int ones = prefix == 0 ? 0 : static_cast<int>(rng->NextBounded(3)) +
                                           prefix - 2;
    uint32_t bm = ones <= 0 ? 0u : ones >= 32 ? ~0u : (1u << ones) - 1;
    if (fringe > 0) {
      const uint32_t window = fringe >= 32 ? ~0u : (1u << fringe) - 1;
      bm |= (static_cast<uint32_t>(rng->Next()) & window) << prefix;
    }
    bank.push_back(bm);
  }
  return bank;
}

TEST(RleTest, ColumnKernelMatchesBitAtATimeReference) {
  // Golden: the column kernel (constant prefix/tail runs, gathered fringe,
  // transition-mask scan) must reproduce the bit-at-a-time codec's bytes
  // and sizes exactly, at every width and at the kernel's edge cases.
  auto expect_same = [](const std::vector<uint32_t>& bank, const char* what) {
    EXPECT_EQ(EncodeBankRle(bank), reference::EncodeBankRle(bank))
        << what << " count=" << bank.size();
    EXPECT_EQ(BankRleBytes(bank), reference::BankRleBytes(bank))
        << what << " count=" << bank.size();
  };
  Rng rng(4242);
  for (int count : kKernelWidths) {
    for (const auto& bank : KernelEdgeBanks(count)) expect_same(bank, "edge");
    for (int which = 0; which < 5; ++which) {
      expect_same(AdversarialBank(which, count, &rng), "adversarial");
    }
  }
  for (int trial = 0; trial < 10000; ++trial) {
    const int count = kKernelWidths[trial % std::size(kKernelWidths)];
    if (trial % 4 == 0) {
      expect_same(AdversarialBank(3 + trial / 4 % 2, count, &rng), "random");
    } else {
      expect_same(RandomFmShapedBank(count, &rng), "fm-shaped");
    }
  }
  for (uint64_t n : {1ull, 2ull, 5ull, 20ull, 100ull, 1000ull, 10000ull,
                     50000ull, 200000ull}) {
    for (int count : {1, 3, 40, 65, 129}) {
      FmSketch s(count, 23);
      for (uint64_t k = 0; k < n; ++k) s.AddKey(k);
      expect_same(s.bitmaps(), "fm");
    }
  }
}

TEST(RleTest, DecodeSurvivesMutatedStreams) {
  // Seeded mutation fuzz: bit flips, truncations and extensions of valid
  // encodings. A mutated stream must decode to a checked error or to a bank
  // of `count` bitmaps that round-trips -- never abort.
  Rng rng(977);
  auto check = [](const std::vector<uint8_t>& bytes, size_t count) {
    auto decoded = DecodeBankRle(bytes, count);
    if (!decoded.ok()) return false;
    EXPECT_EQ(decoded.value().size(), count);
    auto again = DecodeBankRle(EncodeBankRle(decoded.value()), count);
    EXPECT_TRUE(again.ok());
    if (again.ok()) EXPECT_EQ(again.value(), decoded.value());
    return true;
  };
  for (int count : {1, 40, 65}) {
    const size_t n = static_cast<size_t>(count);
    std::vector<std::vector<uint32_t>> banks;
    for (uint64_t keys : {0ull, 30ull, 3000ull}) {
      FmSketch s(count, 31);
      for (uint64_t k = 0; k < keys; ++k) s.AddKey(k);
      banks.push_back(s.bitmaps());
    }
    banks.push_back(AdversarialBank(3, count, &rng));
    for (const auto& bank : banks) {
      const std::vector<uint8_t> valid = EncodeBankRle(bank);
      ASSERT_TRUE(check(valid, n));
      // Every single-bit flip.
      for (size_t bit = 0; bit < valid.size() * 8; ++bit) {
        std::vector<uint8_t> m = valid;
        m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        check(m, n);
      }
      // Random multi-bit flips.
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<uint8_t> m = valid;
        const int flips = 2 + static_cast<int>(rng.NextBounded(7));
        for (int f = 0; f < flips; ++f) {
          const size_t bit = rng.NextBounded(m.size() * 8);
          m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        check(m, n);
      }
      // Every strict prefix cuts the last run's code: always an error.
      for (size_t len = 0; len < valid.size(); ++len) {
        std::vector<uint8_t> m(valid.begin(), valid.begin() + len);
        EXPECT_FALSE(check(m, n)) << "count=" << count << " prefix=" << len;
      }
      // Appended bytes follow a complete stream and must be ignored.
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint8_t> m = valid;
        const int extra = 1 + static_cast<int>(rng.NextBounded(16));
        for (int b = 0; b < extra; ++b) {
          m.push_back(static_cast<uint8_t>(rng.Next()));
        }
        auto decoded = DecodeBankRle(m, n);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value(), bank);
      }
    }
  }
}

TEST(RleTest, DecodeRejectsOverlongRun) {
  // A run that overruns the bank is corrupt input, not a silent clamp.
  BitWriter w;
  w.WriteBit(true);
  w.WriteGamma(40 * 32 + 7);  // bank holds 1280 bits; claim 1287
  auto result = DecodeBankRle(w.bytes(), 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST(RleTest, DecodeRejectsOverlongMiddleRun) {
  BitWriter w;
  w.WriteBit(false);
  w.WriteGamma(1000);  // 280 bits of room left...
  w.WriteGamma(300);   // ...but the next run claims 300
  auto result = DecodeBankRle(w.bytes(), 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST(RleTest, DecodeRejectsWrappedGammaRun) {
  // A gamma code with >= 64 leading zeros would wrap its value modulo
  // 2^64 (e.g. 2^66 + 4 reads back as 4) and sneak past the overrun
  // check; the reader must reject it as malformed instead.
  BitWriter w;
  w.WriteBit(true);
  w.WriteBits(0, 64);          // 66 leading zeros: claims a 67-bit value
  w.WriteBits(0, 2);
  w.WriteBits(~0ULL, 64);      // plenty of value bits to keep reading
  w.WriteBits(~0ULL, 64);
  auto result = DecodeBankRle(w.bytes(), 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(RleTest, DecodeRejectsTruncatedStream) {
  FmSketch s(40, 21);
  for (uint64_t k = 0; k < 500; ++k) s.AddKey(k);
  auto bytes = EncodeBankRle(s.bitmaps());
  bytes.resize(bytes.size() / 2);  // cut the stream mid-run
  auto result = DecodeBankRle(bytes, 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(RleTest, DecodeRejectsEmptyStream) {
  auto result = DecodeBankRle({}, 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

// --------------------------------------------------------- FmValueMemo --

TEST(FmValueMemoTest, BitIdenticalToAddValue) {
  FmValueMemo memo(40, 5);
  Rng rng(401);
  for (int i = 0; i < 50; ++i) {
    uint64_t key = rng.NextBounded(10);      // keys repeat
    uint64_t value = 1 + rng.NextBounded(4);  // values repeat per key
    FmSketch direct(40, 5);
    direct.AddValue(key, value);
    FmSketch memoized(40, 5);
    memo.AddValue(&memoized, key, value);
    EXPECT_TRUE(direct == memoized) << "key=" << key << " value=" << value;
  }
}

TEST(FmValueMemoTest, RepeatedReadingHitsCache) {
  FmValueMemo memo(40, 5);
  FmSketch s(40, 5);
  for (int epoch = 0; epoch < 10; ++epoch) {
    s.Clear();
    for (uint64_t node = 0; node < 8; ++node) memo.AddValue(&s, node, 100);
  }
  EXPECT_EQ(memo.misses(), 8u);       // first epoch simulates
  EXPECT_EQ(memo.hits(), 9u * 8u);    // the rest replay cached banks
}

TEST(FmValueMemoTest, ZeroValueIsNoop) {
  FmValueMemo memo(40, 5);
  FmSketch s(40, 5);
  memo.AddValue(&s, 3, 0);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(memo.misses(), 0u);
}

TEST(FmSketchTest, ClearAndAssignFromReuseStorage) {
  FmSketch a(40, 5), b(40, 5);
  a.AddValue(1, 1000);
  b.AddValue(2, 2000);
  FmSketch c = a;
  c.Clear();
  EXPECT_TRUE(c.Empty());
  c.AssignFrom(b);
  EXPECT_TRUE(c == b);
  c.OrBits(a.bitmaps());
  FmSketch merged = a;
  merged.Merge(b);
  EXPECT_TRUE(c == merged);
}

// ------------------------------------------------------------------ RLE --

// Reads `nbits` LSB-first through the non-aborting reader.
uint64_t TryReadBits(BitReader* r, int nbits) {
  uint64_t v = 0;
  for (int i = 0; i < nbits; ++i) {
    bool bit = false;
    EXPECT_TRUE(r->TryReadBit(&bit)) << "stream ended at bit " << i;
    v |= static_cast<uint64_t>(bit) << i;
  }
  return v;
}

TEST(RleTest, BitWriterReaderRoundtrip) {
  BitWriter w;
  w.WriteBits(0b1011, 4);
  w.WriteBit(true);
  w.WriteBits(0x12345678, 32);
  BitReader r(w.bytes());
  EXPECT_EQ(TryReadBits(&r, 4), 0b1011u);
  EXPECT_TRUE(r.ReadBit());
  EXPECT_EQ(TryReadBits(&r, 32), 0x12345678u);
  // 37 bits written, 40 in the last byte: three zero pad bits, then end.
  EXPECT_EQ(TryReadBits(&r, 3), 0u);
  bool bit = false;
  EXPECT_FALSE(r.TryReadBit(&bit));
}

TEST(RleTest, TypicalFmBankCompressesWell) {
  // FM bitmaps (prefix of ones + fringe) compress far better than random.
  FmSketch s(40, 11);
  for (uint64_t k = 0; k < 1000; ++k) s.AddKey(k);
  size_t fm_bytes = BankRleBytes(s.bitmaps());
  Rng rng(79);
  std::vector<uint32_t> random;
  for (int i = 0; i < 40; ++i) random.push_back(static_cast<uint32_t>(rng.Next()));
  size_t random_bytes = BankRleBytes(random);
  EXPECT_LT(fm_bytes, random_bytes);
}

// ------------------------------------------------------ SampleSynopsis --

TEST(SampleSynopsisTest, KeepsCapacity) {
  SampleSynopsis s(10, 1);
  for (uint64_t id = 0; id < 100; ++id) s.Add(id, static_cast<double>(id));
  EXPECT_EQ(s.size(), 10u);
}

TEST(SampleSynopsisTest, DuplicateInsensitive) {
  SampleSynopsis a(10, 1), b(10, 1);
  for (uint64_t id = 0; id < 50; ++id) {
    a.Add(id, 1.0 * id);
    b.Add(id, 1.0 * id);
    b.Add(id, 1.0 * id);  // replay
  }
  b.Merge(a);  // merge with identical content
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id);
  }
}

TEST(SampleSynopsisTest, MergeEqualsUnion) {
  SampleSynopsis a(16, 2), b(16, 2), u(16, 2);
  for (uint64_t id = 0; id < 200; ++id) {
    if (id % 2 == 0) a.Add(id, 1.0);
    if (id % 3 == 0) b.Add(id, 1.0);
    if (id % 2 == 0 || id % 3 == 0) u.Add(id, 1.0);
  }
  a.Merge(b);
  ASSERT_EQ(a.size(), u.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, u.entries()[i].id);
  }
}

TEST(SampleSynopsisTest, SampleIsUniform) {
  // Every id should be retained with roughly equal probability across
  // seeds; check that low and high ids are sampled comparably often.
  int low = 0, high = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SampleSynopsis s(20, seed);
    for (uint64_t id = 0; id < 100; ++id) s.Add(id, 0.0);
    for (const auto& e : s.entries()) {
      if (e.id < 50) {
        ++low;
      } else {
        ++high;
      }
    }
  }
  double ratio = static_cast<double>(low) / high;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(SampleSynopsisTest, QuantileEstimation) {
  SampleSynopsis s(200, 3);
  for (uint64_t id = 0; id < 2000; ++id) {
    s.Add(id, static_cast<double>(id % 1000));
  }
  // Median of values 0..999 repeated: ~500; sample of 200 -> generous band.
  EXPECT_NEAR(s.EstimateQuantile(0.5), 500.0, 120.0);
  EXPECT_NEAR(s.EstimateMean(), 499.5, 60.0);
}

TEST(SampleSynopsisTest, CentralMoment) {
  SampleSynopsis s(500, 4);
  Rng rng(83);
  for (uint64_t id = 0; id < 5000; ++id) s.Add(id, rng.Normal(0.0, 2.0));
  // Variance ~ 4.
  EXPECT_NEAR(s.EstimateCentralMoment(2), 4.0, 1.0);
}

}  // namespace
}  // namespace td
