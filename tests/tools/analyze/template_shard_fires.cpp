// Fixture: the shard lock of a class template, taken through an
// LLVM-style reference local (`Shard &S = shardFor(K);`), the form
// support/ShardedLru.h uses. The analyzer must type the local, see the
// acquisition, and report the solver call made under it.
#include "smt/Satisfiable.h"
#include "support/Mutex.h"

template <typename Key> class Store {
public:
  bool lookup(const Key &K) {
    Shard &S = shardFor(K);
    regel::MutexLock Guard(S.M);
    S.Count += 1;
    return regel::smt::satisfiable(K.F, K.Domains) != false; // under S.M
  }

private:
  struct Shard {
    regel::Mutex M;
    int Count REGEL_GUARDED_BY(M) = 0;
  };

  Shard &shardFor(const Key &) { return Shards[0]; }

  Shard Shards[4];
};
