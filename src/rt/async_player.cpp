#include "rt/async_player.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "rt/delivery.hpp"

#include <algorithm>
#include <chrono>

namespace hcube::rt {

AsyncPlayer::AsyncPlayer(const Plan& plan)
    : plan_(plan),
      views_(static_cast<std::size_t>(plan.total_slots), nullptr) {
    const std::uint64_t bytes =
        plan.total_slots * plan.block_elems * sizeof(double);
    HCUBE_ENSURE_MSG(bytes <= (std::uint64_t{1} << 34),
                     "runtime payload exceeds 16 GiB; shrink the schedule "
                     "or the block size");
    if (plan.mode == DataMode::combine) {
        memory_.assign(static_cast<std::size_t>(plan.total_slots) *
                           plan.block_elems,
                       0.0);
    }
}

ChannelBank& AsyncPlayer::rings() {
    if (!channels_) {
        channels_.emplace(plan_.channel_count, plan_.async_depth,
                          plan_.block_elems, plan_.mode == DataMode::combine);
        channels_->set_fault_hook(hook_);
    }
    return *channels_;
}

void AsyncPlayer::prepare_views() {
    copy_through_ = plan_.mode == DataMode::combine || hook_ != nullptr;
    const std::size_t blk = plan_.block_elems;
    if (copy_through_) {
        if (memory_.empty() && plan_.total_slots > 0) {
            memory_.assign(static_cast<std::size_t>(plan_.total_slots) * blk,
                           0.0);
        }
        seed_plan_memory(plan_, memory_);
        for (std::uint64_t s = 0; s < plan_.total_slots; ++s) {
            views_[static_cast<std::size_t>(s)] =
                memory_.data() + static_cast<std::size_t>(s) * blk;
        }
    } else {
        std::ranges::fill(views_, nullptr);
        for (const std::uint64_t slot : plan_.seeded_slots) {
            views_[static_cast<std::size_t>(slot)] =
                plan_.arena_block(plan_.slot_packet[slot]);
        }
    }
}

std::span<const double> AsyncPlayer::block(node_t node,
                                           packet_t packet) const {
    const std::uint64_t slot = plan_.slot_of(node, packet);
    return slot == Plan::kNoSlot ? std::span<const double>{}
                                 : slot_block(slot);
}

std::uint64_t AsyncPlayer::resident_bytes() const noexcept {
    return ring_bytes() +
           std::uint64_t{views_.capacity()} * sizeof(const double*) +
           std::uint64_t{memory_.capacity()} * sizeof(double);
}

void AsyncPlayer::run_serial(PlayStats& stats, bool ring_walk) {
    // (cycle, sends-before-recvs, lowered index) is the barrier oracle's
    // execution order, so this walk is byte-identical to it — including
    // combine-mode accumulation order — with no queues, no atomics, no
    // barriers.
    //
    // Zero-copy move traffic with no tracer and no detector needs no ring
    // at all: with one executing thread the hop *is* the view
    // assignment. The integrity check gets stronger, not weaker — instead
    // of comparing the descriptor's digest word (published from the same
    // table it is checked against), the forwarded view must be the
    // packet's canonical arena block, pointer-identical.
    if (!ring_walk) {
        for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
            const std::uint32_t lo = plan_.flat_cycle_begin[cycle];
            const std::uint32_t hi = plan_.flat_cycle_begin[cycle + 1];
            for (std::uint32_t i = lo; i < hi; ++i) {
                // Store-and-forward (proven at compile) means no send in
                // this cycle reads a slot this cycle delivers, so the
                // send/recv halves of hop i can be retired together.
                const double* const view = views_[plan_.lowered_send(i).slot];
                const ActionFields r = plan_.lowered_recv(i);
                if (view != plan_.arena_block(r.packet)) [[unlikely]] {
                    ++stats.checksum_failures;
                }
                views_[r.slot] = view;
            }
            stats.blocks_sent += hi - lo;
            stats.blocks_delivered += hi - lo;
        }
        return;
    }
    const RunContext ctx{plan_,
                         *channels_,
                         views_.data(),
                         memory_.data(),
                         plan_.arena_digests().data(),
                         detecting_ ? &arbiter_ : nullptr,
                         /*arrival_timeout_us=*/0,
                         trace_,
                         copy_through_};
    // Sequential in hop order: the lowered accessors stream the
    // interleaved SoA entries 2l / 2l+1 contiguously.
    for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
        if (arbiter_.aborted()) {
            break;
        }
        const std::uint32_t lo = plan_.flat_cycle_begin[cycle];
        const std::uint32_t hi = plan_.flat_cycle_begin[cycle + 1];
        for (std::uint32_t i = lo; i < hi; ++i) {
            const ActionFields a = plan_.lowered_send(i);
            send_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                       stats);
        }
        for (std::uint32_t i = lo; i < hi; ++i) {
            const ActionFields a = plan_.lowered_recv(i);
            const DeliverOutcome out =
                deliver_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                              /*check_seq=*/true, stats);
            if (out == DeliverOutcome::drained ||
                (out == DeliverOutcome::skipped && arbiter_.aborted())) {
                break;
            }
        }
    }
}

PlayStats AsyncPlayer::play() {
    prepare_views();
    arbiter_.reset();
    // Only the move-mode walk with no tracer and no detector hands blocks
    // over without rings; everything else runs the ring protocol.
    const bool ring_walk = copy_through_ || trace_ != nullptr || detecting_;
    if (ring_walk) {
        rings().reset();
    }

    PlayStats stats;
    const auto start = std::chrono::steady_clock::now();
    run_serial(stats, ring_walk);
    const auto stop = std::chrono::steady_clock::now();

    stats.cycles = plan_.cycles; // logical schedule depth, never barriered
    stats.mode = ExecMode::serial;
    stats.seconds = std::chrono::duration<double>(stop - start).count();
    stats.payload_bytes =
        stats.blocks_delivered * plan_.block_elems * sizeof(double);

    // Abort salvage: land the partial timeline before the caller unwinds.
    if (trace_ != nullptr && arbiter_.aborted()) {
        trace_->flush_abort();
    }

    static obs::Counter& m_plays_serial =
        obs::registry().counter("rt.plays_serial");
    static obs::Counter& m_cycles = obs::registry().counter("rt.cycles");
    static obs::Counter& m_copied =
        obs::registry().counter("rt.bytes_copied");
    static obs::Counter& m_checksum =
        obs::registry().counter("rt.checksum_bytes");
    static obs::Histogram& m_play_ns =
        obs::registry().histogram("rt.play_ns");
    m_plays_serial.inc();
    m_cycles.inc(stats.cycles);
    m_copied.inc(stats.bytes_copied);
    m_checksum.inc(stats.payload_bytes);
    m_play_ns.record_seconds(stats.seconds);
    return stats;
}

} // namespace hcube::rt
