// Differential tests of the dependency-driven AsyncPlayer against the
// two-barrier-per-cycle Player: for every schedule family the repo can
// export, at every cube size n = 3..8, both engines must finish clean
// (zero channel faults, zero checksum failures, one delivery per
// scheduled send) and leave byte-identical final memory — including
// combine-mode reduction, where the plan's slot-ordering edges pin the
// floating-point accumulation order to the barrier oracle's.
//
// These suites are named Rt* so the tsan CI job (ctest -R '^Rt') runs
// them under ThreadSanitizer, which is where the work-stealing engine's
// synchronization actually gets exercised.
#include "rt/async_player.hpp"

#include "common/check.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/threads.hpp"
#include "routing/schedule_export.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

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

/// Runs `schedule` through both engines and asserts clean stats plus a
/// byte-identical final memory image, slot by slot. Besides the
/// `threads`-worker async run, every call also checks the service's
/// configuration — one worker, ring depth 1 — over both serial walks: the
/// ring-free view-assignment walk, and the ring protocol (forced by arming
/// detection), which proves depth-1 rings exact.
void expect_engines_agree(const Schedule& schedule, DataMode mode,
                          std::uint32_t threads,
                          const std::string& label) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads));
    const Plan plan = compile_plan(schedule, mode, kBlock, threads);

    Player barrier_player(plan);
    const PlayStats ref = barrier_player.play();
    EXPECT_TRUE(ref.clean());
    EXPECT_EQ(ref.channel_faults, 0u);
    EXPECT_EQ(ref.blocks_delivered, schedule.sends.size());
    expect_slot_blocks_match_lookups(plan, barrier_player);

    const auto expect_oracle_memory = [&](const AsyncPlayer& dut) {
        for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
            const node_t node = plan.slot_node[s];
            const packet_t packet = plan.slot_packet[s];
            const auto a = barrier_player.block(node, packet);
            const auto b = dut.block(node, packet);
            ASSERT_EQ(a.size(), b.size());
            ASSERT_EQ(std::memcmp(a.data(), b.data(),
                                  a.size() * sizeof(double)),
                      0)
                << "final memory diverges at slot " << s << " (node "
                << node << ", packet " << packet << ")";
        }
    };

    AsyncPlayer async_player(plan);
    const PlayStats dut = async_player.play();
    EXPECT_TRUE(dut.clean());
    EXPECT_EQ(dut.channel_faults, 0u);
    EXPECT_EQ(dut.blocks_delivered, schedule.sends.size());
    expect_oracle_memory(async_player);
    expect_slot_blocks_match_lookups(plan, async_player);

    const Plan one = compile_plan(schedule, mode, kBlock, 1, 1);
    for (const bool ring_walk : {false, true}) {
        SCOPED_TRACE(ring_walk ? "one worker, depth-1 rings"
                               : "one worker, ring-free walk");
        AsyncPlayer serial_player(one);
        if (ring_walk) {
            ft::DetectConfig detect;
            detect.arrival_timeout_us = 2'000;
            serial_player.set_detection(detect);
        }
        const PlayStats st = serial_player.play();
        EXPECT_EQ(st.mode, ExecMode::serial);
        EXPECT_TRUE(st.clean());
        EXPECT_EQ(st.blocks_delivered, schedule.sends.size());
        EXPECT_EQ(serial_player.ring_bytes() > 0,
                  ring_walk || mode == DataMode::combine);
        expect_oracle_memory(serial_player);
        expect_slot_blocks_match_lookups(one, serial_player);
    }
}

TEST(RtAsyncVsBarrier, SbtPortOrientedBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_broadcast(
                trees::build_sbt(n, 0),
                BroadcastDiscipline::port_oriented, 4,
                PortModel::one_port_full_duplex),
            DataMode::move, 2, "sbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, MsbtBroadcast) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        // The MSBT needs P divisible by n (one sub-stream per ERSBT).
        expect_engines_agree(
            routing::make_msbt_broadcast(n, 0,
                                         static_cast<packet_t>(n) * 2,
                                         PortModel::one_port_full_duplex),
            DataMode::move, 2, "msbt_bcast n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, SbtDescendingScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::descending, 2,
                                       PortModel::one_port_full_duplex),
            DataMode::move, 2, "sbt_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, BstCyclicScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_bst(n, 0),
                                       ScatterPolicy::cyclic, 2,
                                       PortModel::one_port_full_duplex),
            DataMode::move, 2, "bst_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, AllPortScatter) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_scatter(trees::build_sbt(n, 0),
                                       ScatterPolicy::per_port, 2,
                                       PortModel::all_port),
            DataMode::move, 2, "per_port_scatter n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, SbtAndBstGather) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(
            routing::make_tree_gather(trees::build_sbt(n, 0),
                                      ScatterPolicy::descending, 2,
                                      PortModel::one_port_full_duplex),
            DataMode::move, 2, "sbt_gather n=" + std::to_string(n));
        expect_engines_agree(
            routing::make_tree_gather(trees::build_bst(n, 0),
                                      ScatterPolicy::cyclic, 2,
                                      PortModel::one_port_full_duplex),
            DataMode::move, 2, "bst_gather n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, ReduceCombinesInChannelSequenceOrder) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        const Schedule forward = routing::make_tree_broadcast(
            trees::build_sbt(n, 0), BroadcastDiscipline::port_oriented, 3,
            PortModel::one_port_full_duplex);
        expect_engines_agree(
            routing::reverse_broadcast_for_reduce(forward, 0),
            DataMode::combine, 2, "reduce n=" + std::to_string(n));
    }
}

/// Recursive-doubling allreduce: in cycle d every node exchanges its
/// running partial for packet 0 with its neighbor across dimension d.
/// Listing nodes in ascending order makes the higher node of each pair
/// lower its receive before its same-cycle send, so the engines only
/// agree if the plan's send-side ordering edge pins the send to the
/// slot's pre-accumulation value (the barrier oracle's sends-first rule).
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
        const std::uint32_t threads = n >= 2 ? 4u : 2u;
        expect_engines_agree(recursive_doubling_allreduce(n),
                             DataMode::combine, threads,
                             "allreduce n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, AllgatherAndAlltoall) {
    for (hc::dim_t n = 3; n <= 8; ++n) {
        expect_engines_agree(routing::make_allgather_schedule(n),
                             DataMode::move, 2,
                             "allgather n=" + std::to_string(n));
        expect_engines_agree(routing::make_alltoall_schedule(n, 1),
                             DataMode::move, 2,
                             "alltoall n=" + std::to_string(n));
    }
}

TEST(RtAsyncVsBarrier, OddWorkerCountsAndSerialPath) {
    // One worker takes the serial fast path; three exercises uneven node
    // ownership (2^5 nodes over 3 workers) and therefore stealing.
    const Schedule schedule = routing::make_tree_scatter(
        trees::build_sbt(5, 0), ScatterPolicy::descending, 2,
        PortModel::one_port_full_duplex);
    for (const std::uint32_t threads : {1u, 3u}) {
        expect_engines_agree(schedule, DataMode::move, threads,
                             "odd_workers");
    }
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

TEST(RtAsyncTuner, SecondPlayAlwaysProbesSerial) {
    // The tuner never locks a mode without timing both: whatever the
    // stealing probe measured — a low steal count included — the next play
    // on a tuner-eligible plan (two or more workers, enough actions) is
    // the serial probe.
    const Schedule forward = routing::make_tree_broadcast(
        trees::build_sbt(6, 0), BroadcastDiscipline::port_oriented, 3,
        PortModel::one_port_full_duplex);
    const struct {
        Schedule schedule;
        DataMode mode;
    } cases[] = {
        {routing::make_msbt_broadcast(6, 0, 12,
                                      PortModel::one_port_full_duplex),
         DataMode::move},
        {routing::make_tree_scatter(trees::build_sbt(6, 0),
                                    ScatterPolicy::descending, 2,
                                    PortModel::one_port_full_duplex),
         DataMode::move},
        {routing::make_allgather_schedule(5), DataMode::move},
        {routing::reverse_broadcast_for_reduce(forward, 0),
         DataMode::combine},
    };
    for (const auto& c : cases) {
        for (const std::uint32_t threads : {2u, 4u}) {
            const Plan plan =
                compile_plan(c.schedule, c.mode, kBlock, threads);
            ASSERT_GE(plan.action_count(), 32u * threads); // tuner-eligible
            AsyncPlayer player(plan);
            const PlayStats first = player.play();
            ASSERT_TRUE(first.clean());
            EXPECT_EQ(first.mode, ExecMode::stealing);
            const PlayStats second = player.play();
            EXPECT_TRUE(second.clean());
            EXPECT_EQ(second.mode, ExecMode::serial);
        }
    }
}

TEST(RtAsyncVsBarrier, RejectsRingShallowerThanPlanDepth) {
    const Schedule schedule = routing::make_msbt_broadcast(
        3, 0, 6, PortModel::one_port_full_duplex);
    const Plan plan =
        compile_plan(schedule, DataMode::move, kBlock, 2, /*depth=*/4);
    EXPECT_THROW(AsyncPlayer(plan, 2), check_error);
    AsyncPlayer ok(plan, 4);
    EXPECT_TRUE(ok.play().clean());
}

TEST(RtThreads, AutoPickDefaultsToTwoWhenHardwareUnknown) {
    EXPECT_EQ(pick_worker_threads(3, 0, 0), 2u);
    EXPECT_EQ(pick_worker_threads(3, 0, 1), 2u);
}

TEST(RtThreads, AutoPickUsesHardwareClampedToCubeSize) {
    EXPECT_EQ(pick_worker_threads(3, 0, 16), 8u);  // clamp to 2^3
    EXPECT_EQ(pick_worker_threads(5, 0, 16), 16u); // fits under 2^5
}

TEST(RtThreads, ExplicitRequestIsHonoredUpToCubeSize) {
    EXPECT_EQ(pick_worker_threads(4, 7, 64), 7u);
    EXPECT_EQ(pick_worker_threads(2, 9, 64), 4u); // clamp to 2^2
    EXPECT_EQ(pick_worker_threads(4, 1, 64), 1u);
}

} // namespace
} // namespace hcube::rt
