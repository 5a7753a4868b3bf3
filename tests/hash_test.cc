// Quality and identity checks for the flow-hash primitives: FlowKey::hash
// (the microflow cache's key) and the incremental hash_add64 chain that
// staged lookup, MiniflowSchema and the connection tracker build on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "packet/flow_key.h"
#include "util/hash.h"
#include "util/miniflow.h"
#include "util/rng.h"

namespace ovs {
namespace {

// The EMC's set index at its default 4096 sets (Datapath::emc_insert).
uint64_t emc_set(uint64_t h) { return (h >> 32) & 4095; }

uint64_t chain_hash(const FlowKey& k) {
  return hash_words(k.w.data(), kFlowWords);
}

std::vector<FlowKey> random_keys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowKey> keys(n);
  for (FlowKey& k : keys)
    for (auto& w : k.w) w = rng.next();
  return keys;
}

// Sparse keys shaped like parsed TCP/IPv4 packets: most words zero, the
// rest small fields.
std::vector<FlowKey> packet_keys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowKey> keys(n);
  for (FlowKey& k : keys) {
    k.set_in_port(static_cast<uint32_t>(rng.uniform(64)));
    k.set_eth_src(EthAddr(rng.next()));
    k.set_eth_dst(EthAddr(rng.next()));
    k.set_eth_type(ethertype::kIpv4);
    k.set_nw_proto(ipproto::kTcp);
    k.set_nw_ttl(64);
    k.set_nw_src(Ipv4(static_cast<uint32_t>(rng.next())));
    k.set_nw_dst(Ipv4(static_cast<uint32_t>(rng.next())));
    k.set_tp_src(static_cast<uint16_t>(rng.next()));
    k.set_tp_dst(static_cast<uint16_t>(rng.uniform(1024)));
  }
  return keys;
}

struct FlipCounts {
  size_t flips = 0;
  size_t full = 0;  // 64-bit hash unchanged
  size_t set = 0;   // EMC set index unchanged
};

// Flips every bit of every word of every key and compares each hash with
// the unflipped key's.
template <typename H>
FlipCounts single_bit_flips(const std::vector<FlowKey>& keys, H&& hash) {
  FlipCounts c;
  for (const FlowKey& k : keys) {
    const uint64_t h0 = hash(k);
    for (size_t w = 0; w < kFlowWords; ++w) {
      for (unsigned b = 0; b < 64; ++b) {
        FlowKey f = k;
        f.w[w] ^= uint64_t{1} << b;
        const uint64_t h1 = hash(f);
        ++c.flips;
        c.full += h1 == h0;
        c.set += emc_set(h1) == emc_set(h0);
      }
    }
  }
  return c;
}

// Zero 64-bit collisions, and set-index collisions within 2x either side
// of the 1/4096 a uniform hash gives.
void expect_good_flips(const FlipCounts& c) {
  ASSERT_GE(c.flips, 200u * kFlowWords * 64);
  EXPECT_EQ(c.full, 0u);
  const double expected = static_cast<double>(c.flips) / 4096.0;
  EXPECT_GE(static_cast<double>(c.set), expected / 2) << c.set;
  EXPECT_LE(static_cast<double>(c.set), expected * 2) << c.set;
}

TEST(FlowHash, SingleBitFlipsOfRandomKeys) {
  expect_good_flips(single_bit_flips(random_keys(200, 1),
                                     [](const FlowKey& k) { return k.hash(); }));
}

TEST(FlowHash, SingleBitFlipsOfPacketShapedKeys) {
  expect_good_flips(single_bit_flips(packet_keys(200, 2),
                                     [](const FlowKey& k) { return k.hash(); }));
}

TEST(FlowHash, SingleBitFlipsOfTheWordChain) {
  expect_good_flips(single_bit_flips(random_keys(200, 3), chain_hash));
  expect_good_flips(single_bit_flips(packet_keys(200, 4), chain_hash));
}

// Every constant the two hashes use, plus the extremes. A product of two
// data words would ignore one of them whenever the other makes it zero; no
// word value may do that here.
std::vector<uint64_t> internal_constants() {
  std::vector<uint64_t> c = {0,
                             ~uint64_t{0},
                             kFlowHashMul,
                             kFlowHashFinalMul,
                             kHashAddSeed,
                             kHashAddMul};
  for (uint64_t s : kFlowHashSeeds) c.push_back(s);
  return c;
}

template <typename H>
void expect_no_absorbing_word(H&& hash) {
  const std::vector<FlowKey> keys = random_keys(8, 5);
  for (uint64_t konst : internal_constants()) {
    for (size_t i = 0; i < kFlowWords; ++i) {
      for (const FlowKey& base : keys) {
        FlowKey k = base;
        k.w[i] = konst;
        const uint64_t h0 = hash(k);
        for (size_t j = 0; j < kFlowWords; ++j) {
          if (j == i) continue;
          for (unsigned b : {0u, 31u, 63u}) {
            FlowKey f = k;
            f.w[j] ^= uint64_t{1} << b;
            ASSERT_NE(hash(f), h0) << "word " << i << " = " << std::hex
                                   << konst << " absorbs word " << std::dec
                                   << j << " bit " << b;
          }
        }
      }
    }
  }
}

TEST(FlowHash, NoWordValueAbsorbsTheOthers) {
  expect_no_absorbing_word([](const FlowKey& k) { return k.hash(); });
  expect_no_absorbing_word(chain_hash);
}

TEST(FlowHash, BasisChangesTheHash) {
  const FlowKey k = random_keys(1, 6)[0];
  EXPECT_NE(k.hash(0), k.hash(1));
  EXPECT_NE(hash_words(k.w.data(), kFlowWords, 0),
            hash_words(k.w.data(), kFlowWords, 1));
}

TEST(FlowHash, AllZeroInputsDoNotHashToZero) {
  const uint64_t zeros[kFlowWords] = {};
  for (size_t n = 1; n <= kFlowWords; ++n)
    EXPECT_NE(hash_words(zeros, n), 0u) << n;
  // Runs of zero words of different lengths stay distinct.
  EXPECT_NE(hash_words(zeros, 1), hash_words(zeros, 2));
}

TEST(FlowHash, WordChainIsIncremental) {
  for (const FlowKey& k : random_keys(50, 7)) {
    const uint64_t one_shot = hash_words(k.w.data(), kFlowWords, 99);
    for (size_t split = 0; split <= kFlowWords; ++split) {
      const uint64_t head = hash_words(k.w.data(), split, 99);
      EXPECT_EQ(hash_words(k.w.data() + split, kFlowWords - split, head),
                one_shot);
    }
    uint64_t h = 99;
    for (uint64_t w : k.w) h = hash_add64(h, w);
    EXPECT_EQ(h, one_shot);
  }
}

TEST(FlowHash, MiniflowFullHashChainsTheStages) {
  Rng rng(8);
  const std::vector<FlowKey> keys = random_keys(50, 9);
  for (int m = 0; m < 50; ++m) {
    // Sparse random masks, some with whole stages empty.
    FlowMask mask;
    for (auto& w : mask.w)
      if (rng.uniform(3) == 0) w = rng.next();
    const MiniflowSchema schema(mask);
    for (const FlowKey& k : keys) {
      uint64_t h = 0;
      for (size_t s = 0; s < kNumStages; ++s) h = schema.hash_stage(k, s, h);
      EXPECT_EQ(schema.full_hash(k), h);
      // ...and equals the word chain over the mask-active words alone.
      std::vector<uint64_t> active;
      for (size_t w = 0; w < kFlowWords; ++w)
        if (mask.w[w] != 0) active.push_back(k.w[w] & mask.w[w]);
      EXPECT_EQ(schema.full_hash(k), hash_words(active.data(), active.size()));
    }
  }
}

// hash_mix64 seeds every Rng and places cuckoo buckets; seeded workloads and
// the paper's deterministic outputs depend on these exact values.
TEST(FlowHash, MixAndRngGoldenValues) {
  EXPECT_EQ(hash_mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(hash_mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(hash_mix64(0x0123456789abcdefULL), 0x157a3807a48faa9dULL);
  Rng rng(42);
  EXPECT_EQ(rng.next(), 0x4f4abcae868d76e2ULL);
  EXPECT_EQ(rng.next(), 0x2543feda05bf5f38ULL);
  EXPECT_EQ(rng.next(), 0x3b8b416b32afe767ULL);
  EXPECT_EQ(rng.next(), 0x6dfe97486a029bb5ULL);
}

}  // namespace
}  // namespace ovs
