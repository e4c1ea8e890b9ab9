// The first-pass content checks of a move-mode run, shared by every layer
// that certifies one (rt::Communicator, svc::Session).
//
// Both read the expected digest of a packet from the plan's arena table
// (Plan::arena_digests) instead of regenerating it. That table was hashed
// from the arena's bytes when the arena was built, so a check that only
// compared against it would trust those bytes from then on. holdings_match
// therefore re-hashes every arena block a holder views — once per call per
// packet, the result reused for every other holder of that packet — and
// hashes every other view (copy-through slots, fault-hook copies) on its
// own: every held block is still certified against its canonical digest.
#pragma once

#include "rt/checksum.hpp"
#include "rt/plan.hpp"
#include "sim/cycle.hpp"

#include <cstring>
#include <span>
#include <vector>

namespace hcube::rt {

/// Every (node, packet) that `sim_stats` says is held must hold a block
/// with its packet's canonical digest, and nothing else may appear (move
/// mode). Walks the plan's slots in order rather than the whole cube: a
/// slot's block must be non-empty exactly when the simulator says its pair
/// is held, and the count of non-empty slots must equal the pairs the
/// simulator holds (initial holders plus one per send), so a held pair
/// that has no slot at all still fails.
template <class P>
bool holdings_match(const Plan& plan, const P& player,
                    const sim::CycleStats& sim_stats) {
    const std::size_t blk = plan.block_elems;
    const std::span<const std::uint64_t> digests = plan.arena_digests();
    std::vector<bool> canon_hashed(plan.packet_count, false);
    std::uint64_t held = 0;
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const packet_t p = plan.slot_packet[s];
        const std::span<const double> block = player.slot_block(s);
        if (block.empty() != !sim_stats.holds(plan.slot_node[s], p)) {
            return false;
        }
        if (block.empty()) {
            continue;
        }
        ++held;
        if (block.size() != blk) {
            return false;
        }
        if (block.data() == plan.arena_block(p)) {
            if (!canon_hashed[p]) {
                if (block_checksum(block) != digests[p]) {
                    return false;
                }
                canon_hashed[p] = true;
            }
        } else if (block_checksum(block) != digests[p]) {
            return false;
        }
    }
    return held == std::uint64_t{plan.packet_count} + sim_stats.total_sends;
}

/// Byte-identical final state of two players of one plan, slot by slot —
/// the cross-check that makes the barrier Player the async engine's
/// oracle. Two slots viewing the same bytes are identical without a
/// compare.
template <class Ref, class Dut>
bool identical_memory(const Plan& plan, const Ref& ref, const Dut& dut) {
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> a = ref.slot_block(s);
        const std::span<const double> b = dut.slot_block(s);
        if (a.size() != b.size()) {
            return false;
        }
        if (a.data() != b.data() &&
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) !=
                0) {
            return false;
        }
    }
    return true;
}

} // namespace hcube::rt
