// Differential tests of the AsyncPlayer's serial walk against the barrier
// Player oracle: for every schedule family the repo can export, at every
// cube size n = 3..8, three runs must finish clean (zero channel faults,
// zero checksum failures, one delivery per scheduled send) and leave
// byte-identical final memory — the barrier oracle threaded at 1-4
// workers, the serial walk's ring-free view-assignment form, and the
// serial walk's full ring protocol (forced by arming detection) — including
// combine-mode reduction, where the walk's lowered order must reproduce
// the oracle's floating-point accumulation order.
//
// These suites are named Rt* so the tsan CI job runs them under
// ThreadSanitizer, which is where the threaded barrier oracle's
// synchronization gets exercised.
#include "rt/async_player.hpp"

#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/verify.hpp"
#include "routing/schedule_export.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using routing::ScatterPolicy;
using sim::packet_t;
using sim::PortModel;
using sim::Schedule;

constexpr std::size_t kBlock = 8;

/// Pins the players' slot-indexed read to the (node, packet) lookup it
/// replaces, for every slot.
template <class P>
void expect_slot_blocks_match_lookups(const Plan& plan, const P& player) {
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const auto by_slot = player.slot_block(s);
        const auto by_key = player.block(plan.slot_node[s], plan.slot_packet[s]);
        ASSERT_EQ(by_slot.data(), by_key.data()) << "slot " << s;
        ASSERT_EQ(by_slot.size(), by_key.size()) << "slot " << s;
    }
}

/// Runs `schedule` through the three executions and asserts clean stats
/// plus a byte-identical final memory image, slot by slot: the serial walk
/// on the service's configuration (one worker, ring depth 1) in both of its
/// forms — the ring-free view-assignment walk, and the ring protocol
/// (forced by arming detection), which proves depth-1 rings exact — against
/// the barrier oracle at every worker count from 1 to 4.
void expect_engines_agree(const Schedule& schedule, DataMode mode,
                          const std::string& label) {
    SCOPED_TRACE(label);
    const Plan one = compile_plan(schedule, mode, kBlock, 1, 1);
    AsyncPlayer bypass(one);
    AsyncPlayer ring(one);
    ring.set_detection(true);
    for (AsyncPlayer* serial : {&bypass, &ring}) {
        const bool ring_walk = serial == &ring;
        SCOPED_TRACE(ring_walk ? "depth-1 rings" : "ring-free walk");
        const PlayStats st = serial->play();
        EXPECT_EQ(st.mode, ExecMode::serial);
        EXPECT_TRUE(st.clean());
        EXPECT_EQ(st.blocks_delivered, schedule.sends.size());
        EXPECT_EQ(serial->ring_bytes() > 0,
                  ring_walk || mode == DataMode::combine);
        expect_slot_blocks_match_lookups(one, *serial);
    }

    const auto max_workers = static_cast<std::uint32_t>(
        std::min<node_t>(4, node_t{1} << schedule.n));
    for (std::uint32_t workers = 1; workers <= max_workers; ++workers) {
        SCOPED_TRACE("oracle workers=" + std::to_string(workers));
        const Plan plan = compile_plan(schedule, mode, kBlock, workers);
        Player oracle(plan);
        const PlayStats ref = oracle.play();
        EXPECT_TRUE(ref.clean());
        EXPECT_EQ(ref.blocks_delivered, schedule.sends.size());
        expect_slot_blocks_match_lookups(plan, oracle);
        for (const AsyncPlayer* serial : {&bypass, &ring}) {
            for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
                const node_t node = plan.slot_node[s];
                const packet_t packet = plan.slot_packet[s];
                const auto a = oracle.block(node, packet);
                const auto b = serial->block(node, packet);
                ASSERT_EQ(a.size(), b.size());
                ASSERT_EQ(std::memcmp(a.data(), b.data(),
                                      a.size() * sizeof(double)),
                          0)
                    << "final memory diverges at slot " << s << " (node "
                    << node << ", packet " << packet << ")";
            }
        }
    }
}

TEST(RtAsyncVsBarrier, SbtPortOrientedBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_broadcast(
                trees::build_sbt(n, 0),
                BroadcastDiscipline::port_oriented, 4,
                PortModel::one_port_full_duplex),
            DataMode::move, "sbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, SbtPacedBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_broadcast(
                trees::build_sbt(n, 0), BroadcastDiscipline::paced, 4,
                PortModel::one_port_full_duplex),
            DataMode::move, "sbt_paced_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, MsbtBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        // The MSBT needs P divisible by n (one sub-stream per ERSBT).
        expect_engines_agree(
            routing::make_msbt_broadcast(n, 0,
                                         static_cast<packet_t>(n) * 2,
                                         PortModel::one_port_full_duplex),
            DataMode::move, "msbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, SbtDescendingScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::descending, 2,
                                       PortModel::one_port_full_duplex),
            DataMode::move, "sbt_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, BstCyclicScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_bst(n, 0),
                                       ScatterPolicy::cyclic, 2,
                                       PortModel::one_port_full_duplex),
            DataMode::move, "bst_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, AllPortScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::per_port, 2,
                                       PortModel::all_port),
            DataMode::move, "per_port_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, SbtAndBstGather) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_gather(trees::build_sbt(n, 0),
                                      ScatterPolicy::descending, 2,
                                      PortModel::one_port_full_duplex),
            DataMode::move, "sbt_gather n=" + std::to_string(n));
        expect_engines_agree(
            routing::make_tree_gather(trees::build_bst(n, 0),
                                      ScatterPolicy::cyclic, 2,
                                      PortModel::one_port_full_duplex),
            DataMode::move, "bst_gather n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, ReduceCombinesInChannelSequenceOrder) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, 0), BroadcastDiscipline::port_oriented, 3,
            PortModel::one_port_full_duplex);
        expect_engines_agree(
            routing::reverse_broadcast_for_reduce(forward, 0),
            DataMode::combine, "reduce n=" + std::to_string(n));
    }
}

/// Recursive-doubling allreduce: in cycle d every node exchanges its
/// running partial for packet 0 with its neighbor across dimension d.
/// Listing nodes in ascending order makes the higher node of each pair
/// lower its receive before its same-cycle send, so the engines only
/// agree if the serial walk retires every send of a cycle before its
/// receives: the send must read the slot's pre-accumulation value (the
/// barrier oracle's sends-first rule).
Schedule recursive_doubling_allreduce(hc::dim_t n) {
    Schedule s;
    s.n = n;
    s.packet_count = 1;
    s.initial_holder = {0};
    const hc::node_t count = hc::node_t{1} << n;
    for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(n); ++d) {
        for (hc::node_t v = 0; v < count; ++v) {
            s.sends.push_back(
                {d, v, static_cast<hc::node_t>(v ^ (hc::node_t{1} << d)),
                 0});
        }
    }
    return s;
}

TEST(RtAsyncVsBarrier, AllreduceSameCycleBidirectionalExchange) {
    for (hc::dim_t n = 1; n <= 8; ++n) {
        expect_engines_agree(recursive_doubling_allreduce(n),
                             DataMode::combine,
                             "allreduce n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, AllgatherAndAlltoall) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(routing::make_allgather_schedule(n),
                             DataMode::move,
                             "allgather n=" + std::to_string(n));
        expect_engines_agree(routing::make_alltoall_schedule(n, 1),
                             DataMode::move,
                             "alltoall n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, OddWorkerCountsAndSerialPath) {
    // The AsyncPlayer ignores the plan's worker count: on a three-worker
    // plan (uneven node ownership, 2^5 nodes over 3 workers) it runs the
    // same serial walk and matches that plan's threaded barrier oracle.
    const Schedule schedule = routing::make_tree_scatter(
        trees::build_sbt(5, 0), ScatterPolicy::descending, 2,
        PortModel::one_port_full_duplex);
    expect_engines_agree(schedule, DataMode::move, "odd_workers");
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 3);
    Player oracle(plan);
    AsyncPlayer dut(plan);
    ASSERT_TRUE(oracle.play().clean());
    const PlayStats st = dut.play();
    EXPECT_EQ(st.mode, ExecMode::serial);
    EXPECT_TRUE(st.clean());
    EXPECT_TRUE(identical_memory(plan, oracle, dut));
}

TEST(RtAsyncVsBarrier, AsyncPlayerIsReusableAcrossRuns) {
    const Schedule schedule = routing::make_msbt_broadcast(
        4, 0, 8, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);
    const PlayStats first = player.play();
    const PlayStats second = player.play();
    EXPECT_TRUE(first.clean());
    EXPECT_TRUE(second.clean());
    EXPECT_EQ(first.blocks_delivered, second.blocks_delivered);
    EXPECT_EQ(second.blocks_delivered, schedule.sends.size());
}

} // namespace
} // namespace hcube::rt
