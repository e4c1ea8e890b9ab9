// Executes a compiled Plan as real data movement on plan.workers threads —
// the runtime's fault-free reference oracle. The AsyncPlayer's serial walk
// executes every production play (and detects its faults); this engine
// only checks it.
//
// Each worker owns a contiguous range of cube nodes (the plan's
// workers/node_owner bucket partition, the same one net::NetPlayer walks
// per rank). Execution is cycle-synchronous: during cycle c every worker
// first pushes its nodes' scheduled blocks into the outgoing link channels
// (send phase), all workers cross a barrier, then each drains its nodes'
// incoming channels (receive phase) — verifying each delivered block's
// checksum in move mode or accumulating it elementwise in combine mode —
// and all cross a barrier again. The two barriers per cycle realize the
// paper's synchronized routing steps: a block pushed in cycle c is consumed
// in cycle c and forwardable from cycle c+1, exactly the store-and-forward
// rule the cycle simulator validates. Consequently the number of cycles the
// player executes equals the CycleExecutor makespan of the same schedule.
//
// Violations on worker threads (channel under/overflow, packet mismatch,
// checksum mismatch) cannot throw across threads; they are counted in the
// stats, and a caller treats any nonzero count as a failed oracle run.
#pragma once

#include "ft/fault_model.hpp"
#include "rt/channel.hpp"
#include "rt/plan.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace hcube::rt {

class CycleBarrier;

/// How a play() executed: the barrier engine's lockstep phases, or the
/// AsyncPlayer's serial lowered-order walk (see async_player.hpp).
enum class ExecMode {
    barrier,
    serial,
};

[[nodiscard]] constexpr const char* to_string(ExecMode mode) noexcept {
    switch (mode) {
    case ExecMode::barrier: return "barrier";
    case ExecMode::serial: return "serial";
    }
    return "?";
}

struct PlayStats {
    std::uint32_t cycles = 0;          ///< barrier-synchronized cycles run
    std::uint64_t blocks_sent = 0;     ///< blocks pushed into channels
    std::uint64_t blocks_delivered = 0;///< blocks drained, verified/combined
    std::uint64_t payload_bytes = 0;   ///< blocks_delivered x block bytes
    std::uint64_t bytes_copied = 0;    ///< payload bytes actually memcpy'd
                                       ///< (0 on the zero-copy path)
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;  ///< full-on-push / empty-on-pop /
                                       ///< wrong packet or sequence at head
    std::uint64_t timeouts = 0;        ///< arrivals declared lost (detection
                                       ///< armed only): an empty ring at
                                       ///< pop, or an expired socket wait
    double seconds = 0;                ///< wall clock of the threaded region
    ExecMode mode = ExecMode::barrier; ///< how this run executed
    /// Medium the blocks moved over: the in-process ring bank, or the net
    /// backend's Unix-domain / TCP sockets (set by the net runtime).
    ft::TransportClass transport = ft::TransportClass::ring;

    [[nodiscard]] bool clean() const noexcept {
        return checksum_failures == 0 && channel_faults == 0 &&
               timeouts == 0;
    }
};

class Player {
public:
    /// Allocates the channel bank (and, for combine plans, slot memory)
    /// for `plan`. The plan must outlive the player.
    explicit Player(const Plan& plan);

    /// Seeds initial blocks, runs the full schedule on plan.workers
    /// threads (a one-worker plan runs on the calling thread), and returns
    /// the aggregated stats. Reusable: every call starts from freshly
    /// seeded memory and rewound channels.
    [[nodiscard]] PlayStats play();

    /// Post-run view of the block held by (node, packet); empty span if the
    /// node has no slot for the packet.
    [[nodiscard]] std::span<const double> block(node_t node,
                                               packet_t packet) const;

    /// Post-run view of the block slot `slot` holds (the same block as
    /// block(plan.slot_node[slot], plan.slot_packet[slot]), without the
    /// key lookup); empty span if the slot holds nothing.
    [[nodiscard]] std::span<const double>
    slot_block(std::uint64_t slot) const noexcept {
        const double* view = views_[static_cast<std::size_t>(slot)];
        return view == nullptr ? std::span<const double>{}
                               : std::span<const double>{
                                     view, plan_.block_elems};
    }

    /// Exact heap bytes this engine keeps resident between runs (channel
    /// rings, slot views, combine storage) — what a
    /// byte-budgeted cache charges for keeping the player warm. The plan
    /// itself is accounted separately by Plan::resident_bytes().
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

private:
    /// Ring slots per link. The port model allows one block per directed
    /// link per cycle (compile_plan rejects more), and the receive phase
    /// drains it in the same cycle, so one slot is exact.
    static constexpr std::uint32_t kRingDepth = 1;

    void run_worker(std::uint32_t worker, PlayStats& stats);
    void prepare_views();

    const Plan& plan_;
    CycleBarrier* barrier_ = nullptr; ///< non-null only inside play()
    ChannelBank channels_;
    /// Per slot: the block the (node, packet) currently holds. Move plans
    /// point these into the plan's immutable arena; combine plans into
    /// memory_.
    std::vector<const double*> views_;
    /// Combine plans only: slot storage (total_slots x block_elems
    /// doubles) the partial sums accumulate in. Move plans run zero-copy
    /// and never allocate it.
    std::vector<double> memory_;
};

} // namespace hcube::rt
