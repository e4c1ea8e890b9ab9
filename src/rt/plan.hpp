// Compiles a sim::Schedule into a flat execution plan for the threaded
// runtime.
//
// The cycle simulator works with abstract packet ids; the runtime moves real
// blocks of `block_elems` doubles. The compiler assigns every (node, packet)
// the node will ever hold a node-local block slot, numbers every directed
// link the schedule uses as an SPSC channel, and lowers each scheduled send
// into two actions — a producer-side push and a consumer-side pop — bucketed
// CSR-style by (cycle, worker) so each worker thread walks a contiguous
// range per phase with no allocation or locking on the hot path.
//
// Every action is stamped with its channel sequence number (the k-th
// push/pop on a channel), which the ring protocol checks on arrival.
//
// Plan encoding (one layout): four parallel u32 SoA streams
// (channel/slot/packet/seq) indexed by action id, with send and receive of
// hop l interleaved as ids 2l and 2l+1 so the serial walk streams both
// halves of a hop from adjacent memory; per-(cycle, worker) buckets store
// u32 lowered-hop indices into those streams instead of action structs;
// channel endpoints pack to one u32 (node·2^5 | dimension — the CubeRoute
// idiom: a directed cube link is its origin plus a port number); no per-hop
// cycle stamp is kept (the cycle CSR delimits each cycle's hops). Field
// widths are validated for n <= kCompactMaxDimension, and compile_plan
// rejects larger cubes.
//
// Two data modes:
//   move    — a block travels verbatim; a second delivery of the same packet
//             to the same node is rejected at compile time (the executor's
//             duplicate-delivery rule).
//   combine — duplicate arrivals accumulate elementwise into the slot, and
//             every node's slot is pre-seeded with its own contribution:
//             the reduction semantics of a reversed broadcast schedule.
#pragma once

#include "hc/types.hpp"
#include "sim/cycle.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace hcube::rt {

using hc::dim_t;
using hc::node_t;
using sim::packet_t;

enum class DataMode {
    move,
    combine,
};

/// The plan encoding compile_plan emits. There is one: `automatic` and
/// `compact` both name it (kept so existing callers of the seven-parameter
/// compile_plan still compile).
enum class PlanLayout : std::uint8_t {
    automatic,
    compact,
};

/// Largest cube dimension the plan encoding's 32-bit fields are validated
/// for (the bench envelope); compile_plan rejects larger cubes.
inline constexpr dim_t kCompactMaxDimension = 20;

/// The four hot fields of one lowered action — delivery's ActionRef minus
/// the diagnostics-only cycle — as the plan's accessors hand them to the
/// engines. For a send: copy the node-local block at `slot` into
/// `channel`. For a receive: drain `channel` into `slot` (verifying or
/// combining), expecting `packet` with sequence stamp `seq`.
struct ActionFields {
    std::uint32_t channel;
    std::uint32_t slot;
    std::uint32_t packet;
    std::uint32_t seq;
};

/// Heap footprint of one compiled plan, itemized by concern. Every count
/// is in bytes and accounts vector capacity (compile_plan trims the growth
/// slack), so the total is what the plan pins resident — exactly, except
/// that an arena shared by several plans is charged to each — and the
/// quantity the byte-budgeted svc plan cache charges per entry.
struct PlanFootprint {
    std::uint64_t actions = 0;   ///< SoA action streams
    std::uint64_t buckets = 0;   ///< bucket orders + cycle CSR
    std::uint64_t slots = 0;     ///< slot tables, lookup keys, seed list
    std::uint64_t channels = 0;  ///< packed endpoints + port bitmaps
    /// The arena's blocks, padding included: packet_count x stride doubles
    /// plus the packet_count-word digest table in move mode, 2^n x
    /// packet_count x stride doubles in combine mode. Plans of one shape
    /// share an arena, so the sum of this item over many plans bounds the
    /// real arena bytes from above.
    std::uint64_t arena = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
        return actions + buckets + slots + channels + arena;
    }
};

/// Doubles an arena block of `block_elems` elements occupies: rounded up
/// to a whole 64-byte cache line.
[[nodiscard]] constexpr std::size_t
arena_stride_of(std::size_t block_elems) noexcept {
    return (block_elems + 7) & ~std::size_t{7};
}

/// Immutable payload blocks, each padded to `stride` doubles and 64-byte
/// aligned so consecutive blocks never share a cache line. Written once at
/// construction. Two kinds: the canonical block of every packet (move
/// mode), or every node's contribution to every packet of an n-cube
/// reduction (combine mode), node-major.
///
/// A canonical arena also owns the digest table: digests()[p] is
/// block_checksum over the first block_elems elements of block p, computed
/// once, right after the block is written. It is the one source of the
/// expected digest every move-mode consumer reads — the players' in-flight
/// checks and the first pass's holdings check; nothing regenerates it per
/// player or per held block.
class BlockArena {
public:
    /// Canonical blocks of packets [0, packets), `block_elems` doubles each
    /// (padded to the stride), and their digest table.
    BlockArena(packet_t packets, std::size_t block_elems);
    /// Contributions of the 2^n nodes to packets [0, packets): block
    /// node * packets + packet holds fill_contribution(node, packet).
    BlockArena(dim_t n, packet_t packets, std::size_t stride);

    [[nodiscard]] packet_t packets() const noexcept { return packets_; }
    /// The digest table: per packet, the checksum of its canonical block
    /// over block_elems elements; empty for contribution arenas.
    [[nodiscard]] std::span<const std::uint64_t> digests() const noexcept {
        return digests_;
    }
    /// The canonical block of `packet` (canonical arenas).
    [[nodiscard]] const double* block(packet_t packet) const noexcept {
        return base_ + std::size_t{packet} * stride_;
    }
    /// Node `node`'s contribution to `packet` (contribution arenas).
    [[nodiscard]] const double* contribution(node_t node,
                                             packet_t packet) const noexcept {
        return base_ +
               (std::size_t{node} * packets_ + packet) * stride_;
    }
    /// Every element of every block, padding included.
    [[nodiscard]] std::span<const double> elements() const noexcept {
        return {base_, data_.size() - 7};
    }

private:
    /// Allocates `blocks` uninitialized aligned blocks.
    BlockArena(std::size_t blocks, std::size_t stride, packet_t packets);

    std::vector<double> data_; ///< over-allocated by 7 for alignment
    std::vector<std::uint64_t> digests_; ///< per packet; canonical only
    double* base_;
    std::size_t stride_;
    packet_t packets_;
};

/// The process-wide arena of `packets` canonical blocks of `block_elems`
/// doubles: the live one when a plan already holds it, else a new one.
/// Keyed by block_elems, not by stride: two block sizes that round to one
/// stride share their bytes but not their digests. Sharing only identical
/// arenas keeps every live arena charged in full to each plan that holds
/// it (PlanFootprint::arena). Thread-safe.
[[nodiscard]] std::shared_ptr<const BlockArena>
shared_block_arena(packet_t packets, std::size_t block_elems);

/// The process-wide contribution arena of an n-cube reduction over
/// `packets` packets at `stride`, shared through the same registry as
/// shared_block_arena. Thread-safe.
[[nodiscard]] std::shared_ptr<const BlockArena>
shared_contribution_arena(dim_t n, packet_t packets, std::size_t stride);

struct Plan {
    dim_t n = 0;
    std::uint32_t cycles = 0; ///< 1 + largest scheduled cycle, 0 if no sends
    packet_t packet_count = 0;
    std::size_t block_elems = 0;
    DataMode mode = DataMode::move;
    std::uint32_t workers = 1;

    /// Per-node owning worker for plans compiled over a member subset
    /// (contiguous balanced ranges over the *live* nodes, so no worker is
    /// left idle by the holes). Empty for full-cube plans, where the
    /// arithmetic split below is exact.
    std::vector<std::uint32_t> node_owner;

    /// Worker that owns `node` (contiguous balanced ranges; member plans
    /// read the lookup table, full-cube plans stay arithmetic).
    [[nodiscard]] std::uint32_t owner_of(node_t node) const noexcept {
        return node_owner.empty()
                   ? static_cast<std::uint32_t>(
                         (std::uint64_t{node} * workers) >> n)
                   : node_owner[node];
    }

    // ---- node-local memory layout -------------------------------------
    std::uint64_t total_slots = 0;
    std::vector<packet_t> slot_packet; ///< per slot: the packet it holds
    std::vector<node_t> slot_node;     ///< per slot: the owning node
    /// Slots the player seeds before cycle 0: in move mode the initial
    /// holders' canonical blocks, in combine mode every slot (each node's
    /// own contribution). Always the prefix [0, seeded_slots.size()) of the
    /// slot ids.
    std::vector<std::uint32_t> seeded_slots;

    // ---- immutable block arena ----------------------------------------
    /// The source of every seeded block. Move mode: the canonical blocks
    /// of packets [0, packet_count), the backing store every zero-copy
    /// descriptor points into, and their digest table (the expected
    /// checksum of every move-mode check; see arena_digests); a canonical
    /// block depends only on its packet id, so every move-mode plan with
    /// the same packet count and block size shares one arena (see
    /// shared_block_arena). Combine mode: the
    /// contribution of every node of the cube to every packet, shared by
    /// every combine plan of the same dimension, packet count and stride
    /// (shared_contribution_arena); slots there are mutable accumulators
    /// seeded by copy from it, never views of it.
    std::shared_ptr<const BlockArena> arena;
    std::size_t arena_stride = 0; ///< block_elems rounded up to 8 doubles

    /// The canonical arena block for `packet` (move mode only).
    [[nodiscard]] const double* arena_block(packet_t packet) const noexcept {
        return arena->block(packet);
    }
    /// Per packet: the digest its canonical block must have (move mode;
    /// empty in combine mode, where no digest is precomputable). Computed
    /// from the arena's bytes when the arena was built, so a check that
    /// only compares against this table trusts those bytes; the first
    /// pass's holdings check re-hashes them (rt/verify.hpp).
    [[nodiscard]] std::span<const std::uint64_t>
    arena_digests() const noexcept {
        return arena->digests();
    }

    // ---- channels ------------------------------------------------------
    std::uint32_t channel_count = 0;
    /// Per channel: the directed cube link packed into one word,
    /// (from << kChannelDimBits) | dimension. The receiving endpoint is
    /// recovered by flipping the dimension bit — whole route tables in a
    /// few bytes per link instead of a pair of node ids.
    std::vector<std::uint32_t> channel_ep;
    static constexpr std::uint32_t kChannelDimBits = 5;
    [[nodiscard]] node_t channel_from(std::uint32_t c) const noexcept {
        return channel_ep[c] >> kChannelDimBits;
    }
    [[nodiscard]] dim_t channel_dim(std::uint32_t c) const noexcept {
        return static_cast<dim_t>(channel_ep[c] &
                                  ((1u << kChannelDimBits) - 1));
    }
    [[nodiscard]] node_t channel_to(std::uint32_t c) const noexcept {
        return channel_from(c) ^ (node_t{1} << channel_dim(c));
    }
    [[nodiscard]] std::pair<node_t, node_t>
    channel_endpoints(std::uint32_t c) const noexcept {
        return {channel_from(c), channel_to(c)};
    }

    /// Per node: the cube dimensions it sends across / receives on, one bit
    /// per dimension (n <= 26 fits any node's route set in one word — the
    /// raikv CubeRoute idiom). Built during lowering and used to cross-
    /// check the (cycle, worker) bucket partition at compile time; the
    /// footprint and fault reports read them too.
    std::vector<std::uint32_t> node_out_ports;
    std::vector<std::uint32_t> node_in_ports;

    // ---- per-(cycle, worker) action buckets ---------------------------
    /// CSR offsets of size cycles*workers + 1 into the bucketed orders;
    /// bucket index = cycle * workers + worker. Offsets fit u32: S < 2^31
    /// by construction.
    std::vector<std::uint32_t> send_begin;
    std::vector<std::uint32_t> recv_begin;
    /// Lowered hop indices bucketed by (cycle, owner of the sending /
    /// receiving node) — the barrier engine chases them into the SoA
    /// streams.
    std::vector<std::uint32_t> send_order;
    std::vector<std::uint32_t> recv_order;

    // ---- lowered actions ----------------------------------------------
    /// Action ids interleave the two halves of each lowered hop in
    /// execution order: the send of hop l is id 2l, its receive 2l+1 (hops
    /// are cycle-sorted), so the serial walk reads both halves of a hop
    /// from adjacent memory.
    std::vector<std::uint32_t> act_channel;
    std::vector<std::uint32_t> act_slot;
    std::vector<packet_t> act_packet;
    std::vector<std::uint32_t> act_seq;
    /// CSR offsets of size cycles + 1 over the lowered hop indices: hops of
    /// cycle c are [flat_cycle_begin[c], flat_cycle_begin[c+1]). This is
    /// the serial walk's entire schedule — no buckets, no barriers.
    std::vector<std::uint32_t> flat_cycle_begin;
    /// Ring slots per channel the AsyncPlayer's bank is sized from (a power
    /// of two). One is exact for the serial walk: it retires all of a
    /// cycle's sends before its receives, and a directed link carries at
    /// most one block per cycle.
    std::uint32_t async_depth = 0;

    [[nodiscard]] std::uint32_t action_count() const noexcept {
        return static_cast<std::uint32_t>(act_channel.size());
    }
    [[nodiscard]] std::uint32_t lowered_count() const noexcept {
        return action_count() / 2;
    }

    /// Hot fields of an action id, straight from the SoA streams.
    [[nodiscard]] ActionFields fields(std::uint32_t id) const noexcept {
        return {act_channel[id], act_slot[id], act_packet[id], act_seq[id]};
    }

    /// Bucketed accessors the (cycle, worker) engines walk: position `pos`
    /// is an offset from send_begin / recv_begin.
    [[nodiscard]] ActionFields bucket_send(std::size_t pos) const noexcept {
        return fields(send_order[pos] << 1);
    }
    [[nodiscard]] ActionFields bucket_recv(std::size_t pos) const noexcept {
        return fields((recv_order[pos] << 1) | 1u);
    }

    /// Hop-ordered accessors for the serial walk: hop l's send and receive
    /// halves, the adjacent SoA entries 2l and 2l+1.
    [[nodiscard]] ActionFields lowered_send(std::uint32_t l) const noexcept {
        return fields(l << 1);
    }
    [[nodiscard]] ActionFields lowered_recv(std::uint32_t l) const noexcept {
        return fields((l << 1) | 1u);
    }

    /// Slot of (node, packet), or kNoSlot if the node never holds it.
    /// Binary search over a sorted key array with a parallel u32 slot
    /// array — compact, cache friendly, read-only after compilation.
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};
    [[nodiscard]] std::uint64_t slot_of(node_t node, packet_t packet) const {
        const std::uint64_t key = (std::uint64_t{packet} << 32) | node;
        const auto it = std::ranges::lower_bound(slot_keys, key);
        return it == slot_keys.end() || *it != key
                   ? kNoSlot
                   : slot_vals[static_cast<std::size_t>(
                         it - slot_keys.begin())];
    }

    /// Sorted (packet<<32|node) keys and their slots; built once by the
    /// compiler.
    std::vector<std::uint64_t> slot_keys;
    std::vector<std::uint32_t> slot_vals;

    /// Exact heap bytes this plan keeps resident, itemized / in total.
    [[nodiscard]] PlanFootprint footprint() const noexcept;
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
        return footprint().total();
    }
};

/// Lowers `schedule` for `workers` threads (the barrier engine's bucket
/// partition; the AsyncPlayer walks any plan serially). Performs the
/// store-and-forward availability and (in move mode) duplicate-delivery
/// checks while lowering, and rejects two packets on one directed link in
/// one cycle — so a plan that compiles is executable without deadlock by
/// construction. `async_depth` is the AsyncPlayer's ring depth (rounded up
/// to a power of two). `layout` names the one encoding and is otherwise
/// unused; cubes beyond kCompactMaxDimension are rejected. `members`
/// (ascending live addresses) compiles the plan for an incomplete cube:
/// every schedule endpoint must be a member, and workers
/// are balanced over the live nodes via the node_owner table instead of
/// the arithmetic address split (empty or full member span = full-cube
/// behavior, bit-for-bit). Throws check_error on violation.
[[nodiscard]] Plan compile_plan(const sim::Schedule& schedule, DataMode mode,
                                std::size_t block_elems,
                                std::uint32_t workers,
                                std::uint32_t async_depth = 8,
                                PlanLayout layout = PlanLayout::automatic,
                                std::span<const node_t> members = {});

/// Seeds `memory` (total_slots x block_elems doubles) with the plan's
/// initial holdings, copied from its arena: canonical packet blocks in move
/// mode, every node's own contribution in combine mode; unseeded slots are
/// zeroed. Shared by every execution engine so their initial states are
/// bit-identical.
void seed_plan_memory(const Plan& plan, std::span<double> memory);

/// FNV-1a fingerprint over a schedule's full content (dimension, packet
/// count, initial holders, and every send) — the identity the Verify::first
/// oracle policy and the service layer key their per-schedule bookkeeping
/// on. Two schedules with equal fingerprints execute identically.
[[nodiscard]] std::uint64_t
schedule_fingerprint(const sim::Schedule& schedule) noexcept;

} // namespace hcube::rt
