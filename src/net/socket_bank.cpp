#include "net/socket_bank.hpp"

#include "common/check.hpp"
#include "rt/simd.hpp"

#include <algorithm>
#include <bit>

namespace hcube::net {

std::uint32_t SocketChannelBank::ring_capacity(const rt::Plan& plan) {
    // Max pushes any single channel sees over the whole schedule: with the
    // ring at least that deep, the engine's own pacing is the only flow
    // control the local path needs, and an ingress burst can never drop.
    std::vector<std::uint32_t> pushes(plan.channel_count, 0);
    for (std::uint32_t l = 0; l < plan.lowered_count(); ++l) {
        ++pushes[plan.lowered_send(l).channel];
    }
    const std::uint32_t deepest =
        pushes.empty() ? 0u : *std::ranges::max_element(pushes);
    return std::bit_ceil(std::clamp<std::uint32_t>(deepest, 2u, 4096u));
}

SocketChannelBank::SocketChannelBank(const rt::Plan& plan,
                                     std::uint32_t rank, PeerBus& bus)
    : plan_(plan), rank_(rank), bus_(bus),
      inner_(plan.channel_count, ring_capacity(plan), plan.block_elems,
             /*inline_payload=*/true),
      route_(plan.channel_count,
             static_cast<std::uint8_t>(Route::foreign)),
      dest_(plan.channel_count, 0), send_seq_(plan.channel_count, 0) {
    HCUBE_ENSURE_MSG(rank < plan.workers,
                     "rank outside the plan's worker range");
    for (std::uint32_t c = 0; c < plan.channel_count; ++c) {
        const std::uint32_t from = plan.owner_of(plan.channel_from(c));
        const std::uint32_t to = plan.owner_of(plan.channel_to(c));
        dest_[c] = to;
        Route r = Route::foreign;
        if (from == rank && to == rank) {
            r = Route::local;
        } else if (from == rank) {
            r = Route::egress;
        } else if (to == rank) {
            r = Route::ingress;
        }
        route_[c] = static_cast<std::uint8_t>(r);
    }
}

bool SocketChannelBank::try_push(std::uint32_t channel, std::uint32_t packet,
                                 std::span<const double> block,
                                 std::uint64_t checksum) noexcept {
    switch (route(channel)) {
    case Route::local:
        return inner_.try_push(channel, packet, block, checksum);
    case Route::egress: {
        // The frame digest is always the digest of the bytes being sent:
        // move-mode pushes pass the canonical expectation (identical for a
        // healthy block), but combine-mode partial sums pass 0 — the wire
        // check needs the real one.
        const std::uint64_t digest =
            rt::simd::checksum(block.data(), block.size());
        return bus_.send_data(dest_[channel], channel, send_seq_[channel]++,
                              packet, digest, block);
    }
    case Route::ingress:
    case Route::foreign:
        // A compute-side push on a channel this rank does not produce is a
        // plan/ownership bug; surface it as a channel fault.
        return false;
    }
    return false;
}

void SocketChannelBank::reset() noexcept {
    inner_.reset();
    std::ranges::fill(send_seq_, 0u);
}

} // namespace hcube::net
