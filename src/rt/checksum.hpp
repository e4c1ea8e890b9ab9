// Canonical payload generation and block checksums for the threaded runtime.
//
// Every abstract packet id maps to one deterministic block of doubles, so a
// receiver can verify a delivered block against the id alone — no reference
// copy travels with the data. Element values are small exact integers:
// elementwise sums over as many as 2^26 contributions stay exactly
// representable in a double, which lets the combining (reduce) path be
// checked for bit-exact equality rather than within a tolerance.
//
// The digest itself is the lane-parallel xxHash64-class checksum in
// rt/simd.hpp (runtime-dispatched AVX2 with a bit-identical scalar
// fallback), hashing the doubles' bit patterns. All payloads the runtime
// generates are small non-negative integers, so every value has exactly one
// representation and bit-pattern hashing is as canonical as value hashing.
//
// Where expected digests come from: a canonical rt::BlockArena hashes each
// block once, right after fill_canonical writes it, into its digest table
// (Plan::arena_digests). The players' in-flight checks and the first pass's
// holdings check (rt/verify.hpp) read that table; the holdings check also
// re-hashes the arena blocks it finds held, so the arena's bytes are still
// certified on every first pass. canonical_checksum below regenerates a
// digest from the packet id alone: it is the independent reference the
// steady-state arena fingerprint and the tests compare against.
#pragma once

#include "rt/simd.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace hcube::rt {

namespace detail {

/// splitmix64 finalizer: cheap, well-mixed, and stateless.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace detail

/// Element `elem` of the canonical block for packet `packet`: an integer in
/// [0, 256).
[[nodiscard]] constexpr double canonical_element(std::uint32_t packet,
                                                 std::size_t elem) noexcept {
    const std::uint64_t h =
        detail::mix64((std::uint64_t{packet} << 32) ^ elem);
    return static_cast<double>(h & 0xffu);
}

/// Element `elem` of node `node`'s *contribution* to packet `packet` in a
/// combining reduction: an integer in [0, 256).
[[nodiscard]] constexpr double
contribution_element(std::uint32_t node, std::uint32_t packet,
                     std::size_t elem) noexcept {
    const std::uint64_t h = detail::mix64(
        (std::uint64_t{node} << 40) ^ (std::uint64_t{packet} << 20) ^ elem);
    return static_cast<double>(h & 0xffu);
}

inline void fill_canonical(std::span<double> block,
                           std::uint32_t packet) noexcept {
    for (std::size_t i = 0; i < block.size(); ++i) {
        block[i] = canonical_element(packet, i);
    }
}

inline void fill_contribution(std::span<double> block, std::uint32_t node,
                              std::uint32_t packet) noexcept {
    for (std::size_t i = 0; i < block.size(); ++i) {
        block[i] = contribution_element(node, packet, i);
    }
}

/// 64-bit digest of a block's contents (dispatched SIMD kernel).
[[nodiscard]] inline std::uint64_t
block_checksum(std::span<const double> block) noexcept {
    return simd::checksum(block.data(), block.size());
}

/// Checksum the canonical block for `packet` would have. Materializes the
/// block into thread-local scratch so the digest comes from the exact same
/// kernel as block_checksum — one algorithm definition, no drift.
[[nodiscard]] inline std::uint64_t
canonical_checksum(std::uint32_t packet, std::size_t block_elems) {
    thread_local std::vector<double> scratch;
    if (scratch.size() < block_elems) {
        scratch.resize(block_elems);
    }
    fill_canonical({scratch.data(), block_elems}, packet);
    return simd::checksum(scratch.data(), block_elems);
}

} // namespace hcube::rt
