#include "rt/player.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "rt/barrier.hpp"
#include "rt/delivery.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace hcube::rt {

namespace {

/// Worker-local stats padded to a cache line so concurrent increments never
/// false-share.
struct alignas(64) WorkerStats {
    PlayStats stats;
};

} // namespace

Player::Player(const Plan& plan)
    : plan_(plan),
      channels_(plan.channel_count, kRingDepth, plan.block_elems,
                plan.mode == DataMode::combine),
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

void Player::prepare_views() {
    const std::size_t blk = plan_.block_elems;
    if (plan_.mode == DataMode::combine) {
        seed_plan_memory(plan_, memory_);
        for (std::uint64_t s = 0; s < plan_.total_slots; ++s) {
            views_[static_cast<std::size_t>(s)] =
                memory_.data() + static_cast<std::size_t>(s) * blk;
        }
    } else {
        // Zero-copy: undelivered slots hold nothing; seeds view their
        // packet's immutable arena block, and deliveries adopt in-flight
        // views as they land.
        std::ranges::fill(views_, nullptr);
        for (const std::uint64_t slot : plan_.seeded_slots) {
            views_[static_cast<std::size_t>(slot)] =
                plan_.arena_block(plan_.slot_packet[slot]);
        }
    }
}

std::span<const double> Player::block(node_t node, packet_t packet) const {
    const std::uint64_t slot = plan_.slot_of(node, packet);
    return slot == Plan::kNoSlot ? std::span<const double>{}
                                 : slot_block(slot);
}

std::uint64_t Player::resident_bytes() const noexcept {
    return channels_.resident_bytes() +
           std::uint64_t{views_.capacity()} * sizeof(const double*) +
           std::uint64_t{memory_.capacity()} * sizeof(double);
}

void Player::run_worker(std::uint32_t worker, PlayStats& stats) {
    const std::uint32_t workers = plan_.workers;
    const RunContext ctx{plan_,
                         channels_,
                         views_.data(),
                         memory_.data(),
                         plan_.arena_digests().data(),
                         /*arbiter=*/nullptr,
                         /*arrival_timeout_us=*/0,
                         /*trace=*/nullptr,
                         /*copy_through=*/plan_.mode == DataMode::combine};
    for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
        const std::size_t bucket = std::size_t{cycle} * workers + worker;
        for (std::size_t i = plan_.send_begin[bucket];
             i < plan_.send_begin[bucket + 1]; ++i) {
            const ActionFields a = plan_.bucket_send(i);
            send_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                       stats);
        }
        // All of this cycle's blocks are on their links.
        barrier_->arrive_and_wait();

        for (std::size_t i = plan_.recv_begin[bucket];
             i < plan_.recv_begin[bucket + 1]; ++i) {
            const ActionFields a = plan_.bucket_recv(i);
            (void)deliver_block(ctx, {a.channel, a.slot, a.packet, a.seq,
                                      cycle},
                                /*check_seq=*/false, stats);
        }
        // All of this cycle's deliveries have landed; cycle c+1 may forward
        // them.
        barrier_->arrive_and_wait();
    }
}

PlayStats Player::play() {
    prepare_views();
    channels_.reset(); // rewind sequence stamps from any faulted prior run

    CycleBarrier barrier(plan_.workers);
    barrier_ = &barrier;
    std::vector<WorkerStats> per_worker(plan_.workers);

    const auto start = std::chrono::steady_clock::now();
    if (plan_.workers == 1) {
        run_worker(0, per_worker[0].stats);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(plan_.workers);
        for (std::uint32_t w = 0; w < plan_.workers; ++w) {
            threads.emplace_back(
                [this, w, &per_worker] { run_worker(w, per_worker[w].stats); });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    barrier_ = nullptr;

    PlayStats total;
    total.cycles = plan_.cycles;
    total.mode = ExecMode::barrier;
    total.seconds = std::chrono::duration<double>(stop - start).count();
    for (const WorkerStats& w : per_worker) {
        total.blocks_sent += w.stats.blocks_sent;
        total.blocks_delivered += w.stats.blocks_delivered;
        total.bytes_copied += w.stats.bytes_copied;
        total.checksum_failures += w.stats.checksum_failures;
        total.channel_faults += w.stats.channel_faults;
        total.timeouts += w.stats.timeouts;
    }
    total.payload_bytes =
        total.blocks_delivered * plan_.block_elems * sizeof(double);

    // One-time aggregate adds after the run — the per-block hot path stays
    // untouched (docs/OBSERVABILITY.md § Overhead).
    static obs::Counter& m_plays = obs::registry().counter("rt.plays_barrier");
    static obs::Counter& m_cycles = obs::registry().counter("rt.cycles");
    static obs::Counter& m_copied =
        obs::registry().counter("rt.bytes_copied");
    static obs::Counter& m_checksum =
        obs::registry().counter("rt.checksum_bytes");
    static obs::Histogram& m_play_ns =
        obs::registry().histogram("rt.play_ns");
    m_plays.inc();
    m_cycles.inc(total.cycles);
    m_copied.inc(total.bytes_copied);
    m_checksum.inc(total.payload_bytes);
    m_play_ns.record_seconds(total.seconds);
    return total;
}

} // namespace hcube::rt
