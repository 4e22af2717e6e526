//===- support/Random.cpp -------------------------------------------------===//

#include "support/Random.h"

#include "support/Hash.h"

#include <cassert>

using namespace regel;

uint64_t Rng::next() {
  // splitmix64's state walks the golden-ratio increments mix64 adds.
  const uint64_t Z = mix64(State);
  State += 0x9e3779b97f4a7c15ull;
  return Z;
}

uint64_t Rng::nextBelow(uint64_t N) {
  assert(N > 0 && "nextBelow needs a positive bound");
  // Rejection sampling to avoid modulo bias.
  uint64_t Limit = UINT64_MAX - UINT64_MAX % N;
  uint64_t V = next();
  while (V >= Limit)
    V = next();
  return V % N;
}

int64_t Rng::nextInRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  return Lo + static_cast<int64_t>(
                  nextBelow(static_cast<uint64_t>(Hi - Lo + 1)));
}

bool Rng::chance(uint64_t Num, uint64_t Den) {
  assert(Den > 0 && Num <= Den && "probability out of range");
  return nextBelow(Den) < Num;
}
