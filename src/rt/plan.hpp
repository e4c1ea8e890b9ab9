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
// For the dataflow AsyncPlayer the compiler additionally stamps every
// action with its channel sequence number (the k-th push/pop on a channel)
// and, for plans of two or more workers, emits an explicit dependency
// graph over the 2·S actions of the lowered schedule: a send waits on the
// receive that produced its source slot (or nothing, if seeded), on the
// previous push of its channel (ring order), and on the pop that frees its
// ring slot (capacity); a receive waits on its channel's k-th push and on
// the previous pop of its channel; combine mode adds the slot-ordering
// edges that serialize elementwise accumulation in channel-sequence order
// and run every same-cycle send before the accumulations it must not
// observe. Every edge points forward in (cycle, send-before-receive,
// lowered index) order, so a plan that compiles is a DAG — executable
// without deadlock by any engine that runs ready actions eventually. A
// one-worker plan needs no graph: that order is the serial walk itself.
//
// Plan encoding (two layouts, selected at compile_plan time):
//
//   compact (default) — the residency layout the svc plan cache budgets:
//     four parallel u32 SoA streams (channel/slot/packet/seq) indexed by
//     action id, with send and receive of hop l interleaved as ids 2l and
//     2l+1 so the dependency CSR and its counters are laid out in execution
//     order; per-(cycle, worker) buckets store u32 lowered-hop indices into
//     those streams instead of action structs; channel endpoints pack to
//     one u32 (node·2^5 | dimension — the CubeRoute idiom: a directed cube
//     link is its origin plus a port number); per-hop cycle stamps are
//     dropped (the cycle CSR recovers them on the cold diagnostics paths).
//     Field widths are validated for n <= kCompactMaxDimension at
//     compile_plan time.
//
//   wide — the pre-compaction reference layout: the same SoA streams plus
//     AoS Action mirrors (flat and bucketed) and per-hop cycle stamps, with
//     the engines reading the AoS arrays exactly where they historically
//     did. Selected by PlanLayout::wide or the HCUBE_PLAN_COMPACT=0
//     environment escape hatch, so a field-width regression is diagnosable
//     without a rebuild.
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

/// Which of the two plan encodings compile_plan emits. `automatic` picks
/// compact unless the HCUBE_PLAN_COMPACT=0 escape hatch or a dimension
/// beyond the compact layout's validated envelope selects wide.
enum class PlanLayout : std::uint8_t {
    automatic,
    compact,
    wide,
};

/// Largest cube dimension the compact layout's 32-bit fields are validated
/// for (the bench envelope). Larger cubes compile to the wide layout under
/// PlanLayout::automatic and are rejected under an explicit
/// PlanLayout::compact.
inline constexpr dim_t kCompactMaxDimension = 20;

/// One lowered runtime action in the wide (reference) AoS encoding, also
/// the value type of the diagnostics accessor Plan::action(). For a send:
/// copy the node-local block at `slot` into `channel`. For a receive: drain
/// `channel` into `slot` (verifying or combining), expecting `packet` with
/// sequence stamp `seq`.
struct Action {
    std::uint32_t channel;
    node_t node;
    std::uint64_t slot; ///< absolute block-slot id (node-local memory)
    packet_t packet;
    std::uint32_t seq;  ///< the action is its channel's seq-th push / pop
};

/// The four hot fields of one lowered action — delivery's ActionRef minus
/// the diagnostics-only cycle — as the layout-agnostic accessors hand them
/// to the engines.
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
    std::uint64_t actions = 0;   ///< SoA streams + wide flat AoS mirrors
    std::uint64_t dep_graph = 0; ///< dep counters + successor CSR
    std::uint64_t buckets = 0;   ///< bucket orders/mirrors + cycle CSR
    std::uint64_t slots = 0;     ///< slot tables, lookup keys, seed list
    std::uint64_t channels = 0;  ///< packed endpoints + port bitmaps
    /// The arena's blocks, padding included: packet_count x stride doubles
    /// plus the packet_count-word digest table in move mode, 2^n x
    /// packet_count x stride doubles in combine mode. Plans of one shape
    /// share an arena, so the sum of this item over many plans bounds the
    /// real arena bytes from above.
    std::uint64_t arena = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
        return actions + dep_graph + buckets + slots + channels + arena;
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
    PlanLayout layout = PlanLayout::compact; ///< resolved, never automatic
    std::uint32_t workers = 1;

    [[nodiscard]] bool compact() const noexcept {
        return layout == PlanLayout::compact;
    }

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
    /// CSR offsets of size cycles*workers + 1 into the bucketed orders
    /// (compact) or the bucketed AoS mirrors (wide); bucket index =
    /// cycle * workers + worker. Offsets fit u32: S < 2^31 by construction.
    std::vector<std::uint32_t> send_begin;
    std::vector<std::uint32_t> recv_begin;
    /// Compact layout: lowered hop indices bucketed by (cycle, owner of the
    /// sending / receiving node) — the engines chase them into the SoA
    /// streams. Empty in the wide layout.
    std::vector<std::uint32_t> send_order;
    std::vector<std::uint32_t> recv_order;
    /// Wide layout only: bucketed AoS mirrors (the reference encoding).
    std::vector<Action> sends; ///< keyed by owner of the sending node
    std::vector<Action> recvs; ///< keyed by owner of the receiving node

    // ---- lowered actions + dataflow dependency graph ------------------
    /// Action ids interleave the two halves of each lowered hop in
    /// execution order: the send of hop l is id 2l, its receive 2l+1 (hops
    /// are cycle-sorted). The SoA streams, the dependency counters, and
    /// the successor CSR are all indexed by this id, so the dataflow
    /// engine's dep walk touches adjacent memory for actions that retire
    /// together.
    std::vector<std::uint32_t> act_channel;
    std::vector<std::uint32_t> act_slot;
    std::vector<packet_t> act_packet;
    std::vector<std::uint32_t> act_seq;
    /// Wide layout only: AoS mirrors of the lowered hops in hop order
    /// (flat_sends[l] / flat_recvs[l] are the push and pop halves of hop
    /// l), plus the per-hop cycle stamp the compact layout drops.
    std::vector<Action> flat_sends;
    std::vector<Action> flat_recvs;
    std::vector<std::uint32_t> flat_cycle;
    /// CSR offsets of size cycles + 1 over the lowered hop indices: hops of
    /// cycle c are [flat_cycle_begin[c], flat_cycle_begin[c+1]). This is
    /// the serial fast path's entire schedule walk — no buckets, no
    /// barriers — and the compact layout's cycle recovery for diagnostics.
    std::vector<std::uint32_t> flat_cycle_begin;
    /// Ring slots per channel the capacity edges were emitted for; an
    /// asynchronous engine must run with at least this many (a producer may
    /// run up to async_depth logical cycles ahead of its consumer).
    std::uint32_t async_depth = 0;
    /// Per action id: number of incoming dependency edges (0 = initially
    /// ready), and the CSR successor lists the engine decrements on
    /// completion. Empty on one-worker plans, which only ever run the
    /// serial lowered-order walk (itself a topological order of the graph).
    std::vector<std::uint32_t> dep_count;
    std::vector<std::uint32_t> succ_begin; ///< size 2·S + 1
    std::vector<std::uint32_t> succ;

    [[nodiscard]] std::uint32_t action_count() const noexcept {
        return static_cast<std::uint32_t>(act_channel.size());
    }
    [[nodiscard]] std::uint32_t lowered_count() const noexcept {
        return action_count() / 2;
    }
    [[nodiscard]] bool is_send_action(std::uint32_t id) const noexcept {
        return (id & 1u) == 0;
    }
    /// Lowered hop behind an action id (both halves map to the same hop).
    [[nodiscard]] static std::uint32_t
    lowered_of(std::uint32_t id) noexcept {
        return id >> 1;
    }

    /// Hot fields of an action id, straight from the SoA streams (present
    /// in both layouts).
    [[nodiscard]] ActionFields fields(std::uint32_t id) const noexcept {
        return {act_channel[id], act_slot[id], act_packet[id], act_seq[id]};
    }
    /// Node an action runs on: the owner of its slot (a send reads the
    /// sender's slot, a receive writes the receiver's).
    [[nodiscard]] node_t action_node(std::uint32_t id) const noexcept {
        return slot_node[act_slot[id]];
    }
    /// The full Action behind an action id, for diagnostics and tests
    /// (layout-agnostic; materialized from the SoA streams).
    [[nodiscard]] Action action(std::uint32_t id) const noexcept {
        const ActionFields f = fields(id);
        return {f.channel, slot_node[f.slot], f.slot, f.packet, f.seq};
    }

    /// Bucketed accessors the (cycle, worker) engines walk: position `pos`
    /// is an offset from send_begin / recv_begin. The wide layout reads its
    /// AoS mirrors here (the reference execution path); compact chases the
    /// bucketed hop index into the SoA streams.
    [[nodiscard]] ActionFields bucket_send(std::size_t pos) const noexcept {
        if (compact()) {
            return fields(send_order[pos] << 1);
        }
        const Action& a = sends[pos];
        return {a.channel, static_cast<std::uint32_t>(a.slot), a.packet,
                a.seq};
    }
    [[nodiscard]] ActionFields bucket_recv(std::size_t pos) const noexcept {
        if (compact()) {
            return fields((recv_order[pos] << 1) | 1u);
        }
        const Action& a = recvs[pos];
        return {a.channel, static_cast<std::uint32_t>(a.slot), a.packet,
                a.seq};
    }

    /// Hop-ordered accessors for the serial fast path (hop l's send and
    /// receive halves). Wide reads the flat AoS mirrors, compact the
    /// adjacent SoA entries 2l and 2l+1.
    [[nodiscard]] ActionFields lowered_send(std::uint32_t l) const noexcept {
        if (compact()) {
            return fields(l << 1);
        }
        const Action& a = flat_sends[l];
        return {a.channel, static_cast<std::uint32_t>(a.slot), a.packet,
                a.seq};
    }
    [[nodiscard]] ActionFields lowered_recv(std::uint32_t l) const noexcept {
        if (compact()) {
            return fields((l << 1) | 1u);
        }
        const Action& a = flat_recvs[l];
        return {a.channel, static_cast<std::uint32_t>(a.slot), a.packet,
                a.seq};
    }

    /// Scheduled cycle of lowered hop `l` — diagnostics only (fault
    /// reports, trace export). The wide layout stores it per hop; compact
    /// recovers it from the cycle CSR with a binary search.
    [[nodiscard]] std::uint32_t
    cycle_of_lowered(std::uint32_t l) const noexcept {
        if (!flat_cycle.empty()) {
            return flat_cycle[l];
        }
        const auto it = std::ranges::upper_bound(flat_cycle_begin, l);
        return static_cast<std::uint32_t>(it - flat_cycle_begin.begin() - 1);
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

/// Lowers `schedule` for `workers` threads. Performs the store-and-forward
/// availability and (in move mode) duplicate-delivery checks while
/// lowering, and rejects two packets on one directed link in one cycle —
/// so a plan that compiles is executable without deadlock by construction.
/// `async_depth` is the ring depth the dependency graph's capacity edges
/// assume (rounded up to a power of two). `layout` selects the encoding;
/// automatic resolves to compact inside the validated envelope (n <=
/// kCompactMaxDimension) unless HCUBE_PLAN_COMPACT=0 forces wide.
/// `members` (ascending live addresses) compiles the plan for an
/// incomplete cube: every schedule endpoint must be a member, and workers
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
