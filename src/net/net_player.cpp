#include "net/net_player.hpp"

#include "common/check.hpp"
#include "rt/delivery.hpp"

#include <chrono>

namespace hcube::net {

NetPlayer::NetPlayer(const rt::Plan& plan, std::uint32_t rank,
                     SocketChannelBank& bank, ft::DetectConfig detect,
                     ft::TransportClass transport)
    : plan_(plan), rank_(rank), bank_(bank), detect_(detect),
      transport_(transport),
      views_(static_cast<std::size_t>(plan.total_slots), nullptr),
      memory_(static_cast<std::size_t>(plan.total_slots) * plan.block_elems,
              0.0) {
    HCUBE_ENSURE_MSG(rank < plan.workers,
                     "rank outside the plan's worker range");
    // Detection is never off over a wire: an absent peer must become a
    // bounded, reported arrival timeout, not a hang.
    if (!detect_.enabled()) {
        detect_ = ft::DetectConfig::for_transport(transport);
    }
    // Copy-through always: seed every slot and point the views at the
    // local memory image, exactly like the barrier Player's copy-through
    // prepare_views() — the precondition for byte-identical finals.
    seed_plan_memory(plan_, memory_);
    for (std::uint64_t s = 0; s < plan_.total_slots; ++s) {
        views_[static_cast<std::size_t>(s)] =
            memory_.data() + static_cast<std::size_t>(s) * plan_.block_elems;
    }
}

NetPlayStats NetPlayer::play() {
    arbiter_.reset();
    rt::PlayStats stats;
    const rt::RunContextT<SocketChannelBank> ctx{
        plan_,    bank_,     views_.data(),
        memory_.data(),      plan_.arena_digests().data(),
        detect_,  arbiter_,  nullptr,
        /*detecting=*/true,  /*copy_through=*/true};

    const auto start = std::chrono::steady_clock::now();
    const std::uint32_t workers = plan_.workers;
    for (std::uint32_t cycle = 0; cycle < plan_.cycles; ++cycle) {
        if (arbiter_.aborted()) {
            break; // no barriers to keep crossing: just stop
        }
        const std::size_t bucket = std::size_t{cycle} * workers + rank_;
        for (std::size_t i = plan_.send_begin[bucket];
             i < plan_.send_begin[bucket + 1]; ++i) {
            const rt::ActionFields a = plan_.bucket_send(i);
            rt::send_block(ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                           rank_, stats);
        }
        for (std::size_t i = plan_.recv_begin[bucket];
             i < plan_.recv_begin[bucket + 1]; ++i) {
            const rt::ActionFields a = plan_.bucket_recv(i);
            // check_seq: in-order reliable delivery restores the exact
            // push order, so the ring's sequence stamps must equal the
            // plan's — a stricter check than the barrier engine needs.
            const rt::DeliverOutcome out = rt::deliver_block(
                ctx, {a.channel, a.slot, a.packet, a.seq, cycle},
                /*check_seq=*/true, rank_, stats);
            if (out == rt::DeliverOutcome::drained ||
                (out == rt::DeliverOutcome::skipped &&
                 arbiter_.aborted())) {
                break;
            }
        }
    }
    const auto stop = std::chrono::steady_clock::now();

    stats.cycles = plan_.cycles;
    stats.mode = rt::ExecMode::barrier; // lockstep bucket order, no steals
    stats.transport = transport_;
    stats.seconds = std::chrono::duration<double>(stop - start).count();
    stats.payload_bytes =
        stats.blocks_delivered * plan_.block_elems * sizeof(double);
    return {stats, arbiter_.report()};
}

std::span<const double> NetPlayer::block(node_t node,
                                         packet_t packet) const {
    const std::uint64_t slot = plan_.slot_of(node, packet);
    return slot == rt::Plan::kNoSlot ? std::span<const double>{}
                                     : slot_block(slot);
}

} // namespace hcube::net
