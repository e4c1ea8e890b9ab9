// The runtime's fast execution engine: one thread walks a compiled Plan in
// its lowered order — (cycle, sends before receives, hop index) — with no
// barriers, queues or atomics on the hot path.
//
// That order is the barrier Player's: the oracle retires every send of
// cycle c before any receive of cycle c, no send reads a block delivered
// in its own cycle (store-and-forward), and the arrivals into one slot
// land in lowered order under both engines (one worker owns the slot, and
// its bucket keeps lowered order). So this walk is byte-identical to the
// oracle — including combine-mode accumulation order, where every
// same-cycle send reads the slot's pre-accumulation value
// (docs/RUNTIME.md § The serial walk).
//
// The walk ignores the plan's worker count: any plan, one worker or many,
// runs on the calling thread. A zero-copy hop is a pointer assignment, so
// a single collective has no per-hop work worth splitting across threads;
// concurrency lives at the request level (svc).
//
// Two forms of the walk. A move-mode play with no fault hook, tracer or
// detector hands each block over by view assignment and never builds the
// channel bank. Everything else — copy-through (combine mode or a fault
// hook), detection, tracing — runs the full ring protocol of
// rt/delivery.hpp, which the bank is built for on first need.
//
// This is the engine that detects faults. Every send of a cycle runs
// before its receives, on this thread, so a receive that finds its ring
// empty reports the block lost at once: there is no producer left that
// could still publish it (rt/detect.hpp).
#pragma once

#include "ft/fault_model.hpp"
#include "rt/channel.hpp"
#include "rt/detect.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp" // PlayStats
#include "rt/tracing.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace hcube::rt {

class AsyncPlayer {
public:
    /// Allocates the slot views (and, for combine plans, slot memory);
    /// the channel bank, plan.async_depth ring slots per link, is built on
    /// first need. The plan must outlive the player.
    explicit AsyncPlayer(const Plan& plan);

    /// Arms fault detection: the first fault (a lost block, a wrong ring
    /// head, a checksum mismatch) becomes fault_report() and stops the
    /// walk. Only valid between runs.
    void set_detection(bool armed) noexcept { detecting_ = armed; }
    /// Installs a fault-injection hook on the channel bank (nullptr
    /// clears). Only valid between runs.
    void set_fault_hook(ft::ChannelFaultHook* hook) {
        hook_ = hook;
        if (channels_) {
            channels_->set_fault_hook(hook);
        }
    }
    /// Attaches a trace recorder (nullptr detaches); the walk records on
    /// lane 0. Only valid between runs.
    void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }

    /// Seeds initial blocks, walks the plan to completion on the calling
    /// thread, and returns the stats (cycles is the logical schedule
    /// depth). Reusable: every call starts from freshly seeded memory and
    /// rewound channels.
    [[nodiscard]] PlayStats play();

    /// The first fault the last play() detected (cls == none on a clean
    /// run, or while detection is off).
    [[nodiscard]] const ft::FaultReport& fault_report() const noexcept {
        return arbiter_.report();
    }

    /// Post-run view of the block held by (node, packet); empty span if
    /// the node has no slot for the packet.
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
    /// rings, slot views, copy-through storage) — what a byte-budgeted
    /// cache charges for keeping the player warm. The plan itself is
    /// accounted by Plan::resident_bytes().
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept;
    /// The channel bank's share of resident_bytes(): 0 until a play has
    /// needed rings.
    [[nodiscard]] std::uint64_t ring_bytes() const noexcept {
        return channels_ ? channels_->resident_bytes() : 0;
    }

private:
    void prepare_views();
    /// The channel bank, built on first call (between runs only).
    ChannelBank& rings();
    /// The lowered-order walk; without `ring_walk` (move mode, no hook,
    /// tracer or detector) hops are plain view assignments.
    void run_serial(PlayStats& stats, bool ring_walk);

    const Plan& plan_;
    std::optional<ChannelBank> channels_; ///< built by rings() on first need
    ft::ChannelFaultHook* hook_ = nullptr;
    /// Per slot: the block the (node, packet) currently holds — arena
    /// views on the zero-copy path, memory_ under copy-through.
    std::vector<const double*> views_;
    /// Copy-through slot storage; eager for combine plans, lazy for move
    /// plans (first fault-hooked run), never touched on pure zero-copy.
    std::vector<double> memory_;
    bool copy_through_ = false; ///< decided per run in prepare_views()
    bool detecting_ = false;
    FaultArbiter arbiter_;
    TraceRecorder* trace_ = nullptr;
};

} // namespace hcube::rt
