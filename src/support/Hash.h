//===- support/Hash.h - The one 64-bit mixer ---------------------*- C++ -*-===//
//
// Part of the Regel reproduction. splitmix64 (golden-ratio increment plus
// the full-avalanche finalizer), shared by every structural hash, shard
// pick, trace-sampling decision and the deterministic RNG in the tree.
// Hashes built on it only pick buckets and shards; identity is always
// decided by comparing full values.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SUPPORT_HASH_H
#define REGEL_SUPPORT_HASH_H

#include <cstdint>

namespace regel {

/// splitmix64: maps consecutive or otherwise correlated inputs to a
/// uniform stream, every output bit depending on every input bit.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace regel

#endif // REGEL_SUPPORT_HASH_H
