// 64-bit hashing primitives used throughout the classifier and caches.
//
// The classifier needs (a) a strong word-at-a-time mixer so tuple-space hash
// tables behave uniformly under adversarial-looking inputs (sequential IPs,
// ports), and (b) *incremental* hashing: staged lookup (paper §5.3) computes
// the hash of stage k by extending the hash of stage k-1 rather than
// re-hashing from scratch ("hashes could be computed incrementally from one
// stage to the next").
//
// Speed comes from the serial dependency chain, not the multiply count: a
// 64x64->128 multiply issues every cycle but takes 3-4 cycles to finish. So
// hash_add64 puts exactly one folded multiply on its running state, and
// FlowKey::hash (packet/flow_key.h) puts none: its per-word multiplies are
// independent and only their sum is carried. hash_mix64 keeps its two
// serial multiplies; it seeds the RNG and places cuckoo buckets, so its
// values must not move.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ovs {

// SplitMix64 finalizer: a full-avalanche bijective mixer.
constexpr uint64_t hash_mix64(uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// 64x64->128-bit product of `a` and `b`, its two halves XORed together. The
// low half sees only the operands' low bits; folding in the high half lets
// every output bit see all of them. Callers pass a constant `b`, so no data
// word can zero the product and hide another word, as a product of two data
// words would.
constexpr uint64_t hash_fold_mul(uint64_t a, uint64_t b) noexcept {
  __extension__ using Uint128 = unsigned __int128;
  const Uint128 p = static_cast<Uint128>(a) * b;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

// hash_add64's constants; the hash tests feed them back in as input words.
inline constexpr uint64_t kHashAddSeed = 0x243f6a8885a308d3ULL;
inline constexpr uint64_t kHashAddMul = 0x5851f42d4c957f2dULL;

// Extends running hash `basis` with one 64-bit word: one folded multiply on
// the chain (the aHash fallback step). The seed keeps an all-zero input from
// hashing to zero.
constexpr uint64_t hash_add64(uint64_t basis, uint64_t word) noexcept {
  return hash_fold_mul(basis ^ word ^ kHashAddSeed, kHashAddMul);
}

// Hashes `n` words starting at `words`, extending `basis`. This is the
// incremental primitive: hash_words(w, 0, k2, b) ==
// hash_words(w + k1, 0, k2 - k1, hash_words(w, 0, k1, b)).
constexpr uint64_t hash_words(const uint64_t* words, size_t n,
                              uint64_t basis = 0) noexcept {
  uint64_t h = basis;
  for (size_t i = 0; i < n; ++i) h = hash_add64(h, words[i]);
  return h;
}

// Byte-string hash for identifiers and tests (FNV-1a then mixed).
constexpr uint64_t hash_bytes(const void* data, size_t n,
                              uint64_t basis = 0) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL ^ basis;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return hash_mix64(h);
}

}  // namespace ovs
