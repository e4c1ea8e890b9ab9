// Tests for the schedule -> execution-plan compiler: slot assignment,
// channel numbering, CSR bucketing, and the feasibility checks it shares
// with the cycle executor (availability, duplicate delivery, link
// capacity).
#include "rt/plan.hpp"

#include "common/check.hpp"
#include "routing/broadcast.hpp"
#include "routing/schedule_export.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hcube::rt {
namespace {

using sim::Schedule;
using sim::ScheduledSend;

Schedule two_hop_chain() {
    // 0 -> 1 in cycle 0, 1 -> 3 in cycle 1 on a 2-cube.
    Schedule s;
    s.n = 2;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 0, 1, 0}, {1, 1, 3, 0}};
    return s;
}

TEST(RtPlan, LowersChainIntoSlotsChannelsAndBuckets) {
    const Plan plan = compile_plan(two_hop_chain(), DataMode::move, 4, 1);
    EXPECT_EQ(plan.cycles, 2u);
    EXPECT_EQ(plan.channel_count, 2u);
    EXPECT_EQ(plan.total_slots, 3u); // held by 0, 1 and 3
    EXPECT_EQ(plan.lowered_count(), 2u);
    EXPECT_EQ(plan.send_begin.back(), 2u);
    EXPECT_EQ(plan.recv_begin.back(), 2u);
    EXPECT_EQ(plan.seeded_slots.size(), 1u); // the initial holder
    EXPECT_NE(plan.slot_of(0, 0), Plan::kNoSlot);
    EXPECT_NE(plan.slot_of(1, 0), Plan::kNoSlot);
    EXPECT_NE(plan.slot_of(3, 0), Plan::kNoSlot);
    EXPECT_EQ(plan.slot_of(2, 0), Plan::kNoSlot);
}

TEST(RtPlan, OwnerPartitionIsBalancedAndContiguous) {
    Plan plan;
    plan.n = 4;
    plan.workers = 3;
    std::uint32_t last = 0;
    std::uint32_t counts[3] = {0, 0, 0};
    for (node_t i = 0; i < 16; ++i) {
        const std::uint32_t owner = plan.owner_of(i);
        ASSERT_LT(owner, 3u);
        ASSERT_GE(owner, last); // contiguous, non-decreasing
        last = owner;
        ++counts[owner];
    }
    for (const std::uint32_t c : counts) {
        EXPECT_GE(c, 5u);
        EXPECT_LE(c, 6u);
    }
}

TEST(RtPlan, RejectsForwardingBeforeArrival) {
    Schedule s = two_hop_chain();
    s.sends[1].cycle = 0; // forwards in the cycle it is still in flight
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, RejectsDuplicateDeliveryInMoveMode) {
    Schedule s;
    s.n = 2;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 0, 1, 0}, {1, 0, 1, 0}};
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, RejectsTwoPacketsOnOneLinkInOneCycle) {
    Schedule s;
    s.n = 2;
    s.packet_count = 2;
    s.initial_holder = {0, 0};
    s.sends = {{0, 0, 1, 0}, {0, 0, 1, 1}};
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, RejectsNonNeighborSends) {
    Schedule s;
    s.n = 2;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 0, 3, 0}};
    EXPECT_THROW((void)compile_plan(s, DataMode::move, 4, 1), check_error);
}

TEST(RtPlan, CombineModeAcceptsDuplicateArrivalsAndSeedsEverySlot) {
    // Reversed broadcast: the root receives packet p once per child, and
    // every node's slot starts as its own contribution.
    const auto tree = trees::build_sbt(3, 0);
    const sim::Schedule forward = routing::make_tree_broadcast(
        tree, routing::BroadcastDiscipline::port_oriented, 2,
        sim::PortModel::one_port_full_duplex);
    const sim::Schedule reduction =
        routing::reverse_broadcast_for_reduce(forward, 0);
    const Plan plan = compile_plan(reduction, DataMode::combine, 4, 2);
    EXPECT_EQ(plan.mode, DataMode::combine);
    EXPECT_EQ(plan.seeded_slots.size(), plan.total_slots);
    // 8 nodes x 2 packets, every node touches every packet.
    EXPECT_EQ(plan.total_slots, 16u);
    // Cycle count is preserved by time reversal.
    const auto stats = sim::execute_schedule(
        forward, sim::PortModel::one_port_full_duplex);
    EXPECT_EQ(plan.cycles, stats.makespan);
}

TEST(RtPlan, BucketsPartitionEverySendByCycleAndOwner) {
    const sim::Schedule schedule = routing::make_msbt_broadcast(
        4, 0, 8, sim::PortModel::one_port_full_duplex);
    const std::uint32_t workers = 3;
    const Plan plan = compile_plan(schedule, DataMode::move, 2, workers);
    ASSERT_EQ(plan.send_begin.size(), std::size_t{plan.cycles} * workers + 1);
    EXPECT_EQ(plan.send_begin.back(), schedule.sends.size());
    EXPECT_EQ(plan.recv_begin.back(), schedule.sends.size());
    // Every action sits in the bucket of its cycle and its node's owner;
    // the node is recovered through the action's slot.
    const auto send_node = [&plan](std::size_t pos) {
        return plan.slot_node[plan.bucket_send(pos).slot];
    };
    const auto recv_node = [&plan](std::size_t pos) {
        return plan.slot_node[plan.bucket_recv(pos).slot];
    };
    for (std::uint32_t c = 0; c < plan.cycles; ++c) {
        for (std::uint32_t w = 0; w < workers; ++w) {
            const std::size_t b = std::size_t{c} * workers + w;
            for (std::size_t i = plan.send_begin[b];
                 i < plan.send_begin[b + 1]; ++i) {
                EXPECT_EQ(plan.owner_of(send_node(i)), w);
            }
            for (std::size_t i = plan.recv_begin[b];
                 i < plan.recv_begin[b + 1]; ++i) {
                EXPECT_EQ(plan.owner_of(recv_node(i)), w);
            }
        }
    }
}

// ------------------------------------------------------ encoding envelope

TEST(RtPlan, RejectsCubesBeyondTheEncodingEnvelope) {
    // The plan's 32-bit fields are validated for n <= 20: a 21-cube is
    // rejected whichever encoding name the caller passes.
    Schedule big;
    big.n = kCompactMaxDimension + 1;
    big.packet_count = 1;
    big.initial_holder = {0};
    big.sends = {{0, 0, 1, 0}};
    EXPECT_THROW((void)compile_plan(big, DataMode::move, 4, 1), check_error);
    EXPECT_THROW((void)compile_plan(big, DataMode::move, 4, 1, 8,
                                    PlanLayout::compact),
                 check_error);
    // The envelope's edge still compiles.
    Schedule edge = big;
    edge.n = kCompactMaxDimension;
    EXPECT_EQ(compile_plan(edge, DataMode::move, 4, 1).lowered_count(), 1u);
}

// ------------------------------------------------ residency regression ---

TEST(RtPlanFootprint, ItemizedTotalsAndTrimmedCapacity) {
    const Plan plan = compile_plan(
        routing::make_msbt_broadcast(4, 0, 8,
                                     sim::PortModel::one_port_full_duplex),
        DataMode::move, 16, 3);
    const PlanFootprint f = plan.footprint();
    EXPECT_EQ(f.total(),
              f.actions + f.buckets + f.slots + f.channels + f.arena);
    EXPECT_EQ(f.total(), plan.resident_bytes());
    // The SoA streams dominate `actions`: four u32 words per action.
    EXPECT_GE(f.actions, plan.action_count() * 16u);
    // The arena is the padded canonical blocks and their digest table.
    EXPECT_EQ(f.arena,
              plan.packet_count * plan.arena_stride * sizeof(double) +
                  plan.packet_count * sizeof(std::uint64_t));
    EXPECT_EQ(plan.arena->packets(), plan.packet_count);
}

/// Regression pins for the compact layout's resident footprint: per
/// family, at every n in 3..8, the compiled plan (workers=2, block 4,
/// arena excluded — block size is a runtime choice, not an encoding
/// property) must fit `bytes_per_hop` bytes per lowered hop plus a fixed
/// allowance. The pins are ~15% above the measured encoding so a field
/// widening or an accidental second encoding fails loudly.
struct FootprintPin {
    const char* family;
    Schedule (*make)(dim_t n);
    std::uint64_t bytes_per_hop;
};

TEST(RtPlanFootprint, CompactBytesStayPinnedPerFamily) {
    static constexpr FootprintPin kPins[] = {
        {"sbt_broadcast",
         [](dim_t n) {
             return routing::make_tree_broadcast(
                 trees::build_sbt(n, 0),
                 routing::BroadcastDiscipline::port_oriented, 4,
                 sim::PortModel::one_port_full_duplex);
         },
         96},
        {"msbt_broadcast",
         [](dim_t n) {
             return routing::make_msbt_broadcast(
                 n, 0, static_cast<packet_t>(n) * 2,
                 sim::PortModel::one_port_full_duplex);
         },
         96},
        {"sbt_scatter",
         [](dim_t n) {
             return routing::make_tree_scatter(
                 trees::build_sbt(n, 0), routing::ScatterPolicy::descending,
                 2, sim::PortModel::one_port_full_duplex);
         },
         96},
        {"bst_scatter",
         [](dim_t n) {
             return routing::make_tree_scatter(
                 trees::build_bst(n, 0), routing::ScatterPolicy::cyclic, 2,
                 sim::PortModel::one_port_full_duplex);
         },
         96},
        {"allgather",
         [](dim_t n) { return routing::make_allgather_schedule(n); }, 76},
        {"alltoall",
         [](dim_t n) { return routing::make_alltoall_schedule(n, 1); }, 76},
    };
    for (const FootprintPin& pin : kPins) {
        for (dim_t n = 3; n <= 8; ++n) {
            SCOPED_TRACE(std::string(pin.family) +
                         " n=" + std::to_string(n));
            const Schedule schedule = pin.make(n);
            const Plan plan = compile_plan(schedule, DataMode::move, 4, 2,
                                           8, PlanLayout::compact);
            const PlanFootprint f = plan.footprint();
            const std::uint64_t encoding = f.total() - f.arena;
            const std::uint64_t hops = plan.lowered_count();
            // Fixed allowance: cycle/bucket CSR headers, per-node port
            // bitmaps, per-channel words, slot tables.
            const std::uint64_t fixed =
                4096 + (std::uint64_t{1} << n) * 8 + plan.channel_count * 4 +
                plan.total_slots * 24;
            EXPECT_LE(encoding, fixed + hops * pin.bytes_per_hop)
                << "hops=" << hops << " encoding=" << encoding;
        }
    }
}

} // namespace
} // namespace hcube::rt
