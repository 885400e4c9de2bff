#pragma once
/// \file digest.hpp
/// \brief FNV-1a over a byte string: explicit, so digests, decision logs
///        and key placement never depend on the standard library's
///        std::hash.

#include <cstdint>
#include <string_view>

namespace idea {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ull;

/// Folds `bytes` into `h` (the offset basis starts a fresh digest).
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnv1aOffsetBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace idea
