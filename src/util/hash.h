#ifndef SHARPCQ_UTIL_HASH_H_
#define SHARPCQ_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace sharpcq {

// 64-bit mix/combine helpers used by hash tables across the library (IdSet
// keys, the plan cache, PS13). Based on the splitmix64 finalizer.
inline std::uint64_t HashMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::size_t HashCombine(std::size_t seed, std::size_t value) {
  return static_cast<std::size_t>(
      HashMix(static_cast<std::uint64_t>(seed) * 0x100000001b3ULL +
              static_cast<std::uint64_t>(value)));
}

// Hashes a contiguous range of integral values.
template <typename It>
std::size_t HashRange(It first, It last, std::size_t seed = 0x9e3779b9u) {
  std::size_t h = seed;
  for (It it = first; it != last; ++it) {
    h = HashCombine(h, static_cast<std::size_t>(*it));
  }
  return h;
}

template <typename T>
struct VectorHash {
  std::size_t operator()(const std::vector<T>& v) const {
    return HashRange(v.begin(), v.end());
  }
};

template <typename A, typename B>
struct PairHash {
  std::size_t operator()(const std::pair<A, B>& p) const {
    return HashCombine(std::hash<A>()(p.first), std::hash<B>()(p.second));
  }
};

struct VectorPairHash {
  template <typename T>
  std::size_t operator()(
      const std::pair<std::vector<T>, std::vector<T>>& p) const {
    return HashCombine(HashRange(p.first.begin(), p.first.end()),
                       HashRange(p.second.begin(), p.second.end()));
  }
};

}  // namespace sharpcq

#endif  // SHARPCQ_UTIL_HASH_H_
