// net::NetPlayer — the per-process execution engine of the net transport.
//
// Each rank process runs one NetPlayer over the SAME compiled plan
// (regenerated locally from the svc::Signature — the generators are
// deterministic, and the mesh handshake pins the fingerprint), compiled
// with workers == procs. Rank r executes exactly the (cycle, r) action
// buckets the barrier Player's worker r would execute, through the same
// rt/delivery.hpp send/deliver helpers — but with no cross-process
// barriers: the ordering a barrier provides in-process is supplied here by
// the transport itself (per-channel in-order reliable delivery) plus the
// bounded arrival wait, which is always on and scaled to the transport
// class (a wire crossing, and its ack-timeout retransmits, need more
// patience than a ring buffer; ft::DetectConfig::for_transport).
//
// Copy-through is unconditional (inbound payloads land in transient wire
// buffers), so delivery re-digests every arrived block against the
// canonical expectation — the third integrity check a block crosses after
// the sender-side frame digest and the bus's wire verification. The final
// memory image is byte-comparable against the in-process oracle: same
// seeding, same accumulation order, same delivery protocol.
#pragma once

#include "ft/fault_model.hpp"
#include "net/socket_bank.hpp"
#include "rt/detect.hpp"
#include "rt/player.hpp" // PlayStats
#include "rt/plan.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace hcube::net {

using hc::dim_t;
using hc::node_t;
using sim::packet_t;

struct NetPlayStats {
    rt::PlayStats play;
    ft::FaultReport fault;
};

class NetPlayer {
public:
    /// `plan.workers` must equal the job's process count; `rank` picks the
    /// bucket column this process executes. Single-shot: one play() per
    /// constructed player (wire sequence state is per-connection).
    NetPlayer(const rt::Plan& plan, std::uint32_t rank,
              SocketChannelBank& bank, ft::DetectConfig detect,
              ft::TransportClass transport);

    [[nodiscard]] NetPlayStats play();

    /// Post-run view of the block held by (node, packet); empty if the
    /// node has no slot, or is not owned by this rank.
    [[nodiscard]] std::span<const double> block(node_t node,
                                                packet_t packet) const;
    /// Post-run view of the block slot `slot` holds (the same block as
    /// block(plan.slot_node[slot], plan.slot_packet[slot]), without the
    /// key lookup); empty if the slot holds nothing.
    [[nodiscard]] std::span<const double>
    slot_block(std::uint64_t slot) const noexcept {
        const double* view = views_[static_cast<std::size_t>(slot)];
        return view == nullptr ? std::span<const double>{}
                               : std::span<const double>{
                                     view, plan_.block_elems};
    }

    [[nodiscard]] bool owns(node_t node) const noexcept {
        return plan_.owner_of(node) == rank_;
    }
    [[nodiscard]] const rt::Plan& plan() const noexcept { return plan_; }

private:
    const rt::Plan& plan_;
    const std::uint32_t rank_;
    SocketChannelBank& bank_;
    ft::DetectConfig detect_;
    ft::TransportClass transport_;
    std::vector<const double*> views_;
    std::vector<double> memory_;
    rt::FaultArbiter arbiter_;
};

} // namespace hcube::net
