// Tests for the schedule -> execution-plan compiler: slot assignment,
// channel numbering, CSR bucketing, and the feasibility checks it shares
// with the cycle executor (availability, duplicate delivery, link
// capacity).
#include "rt/plan.hpp"

#include "common/check.hpp"
#include "routing/broadcast.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/player.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
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
    for (const PlanLayout layout : {PlanLayout::compact, PlanLayout::wide}) {
        const Plan plan = compile_plan(schedule, DataMode::move, 2, workers,
                                       8, layout);
        ASSERT_EQ(plan.send_begin.size(),
                  std::size_t{plan.cycles} * workers + 1);
        EXPECT_EQ(plan.send_begin.back(), schedule.sends.size());
        EXPECT_EQ(plan.recv_begin.back(), schedule.sends.size());
        // Every action sits in the bucket of its cycle and its node's
        // owner, in both encodings. The bucketed accessors hide the
        // layout; the node is recovered through the action's slot.
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
}

TEST(RtPlan, DepGraphChainHasExactEdges) {
    // Two-hop chain, two workers (the edges do not depend on the worker
    // count; one-worker plans carry no graph at all): the send and receive
    // of lowered hop l interleave as ids 2l and 2l+1, so the chain is
    // send 0, recv 1, send 2, recv 3 in execution order. Expected edges:
    // data 0 -> 1 and 2 -> 3, availability 1 -> 2 (the forward reads the
    // slot the first receive produced). The seeded first send depends on
    // nothing.
    const Plan plan = compile_plan(two_hop_chain(), DataMode::move, 4, 2);
    ASSERT_EQ(plan.action_count(), 4u);
    EXPECT_TRUE(plan.is_send_action(0));
    EXPECT_FALSE(plan.is_send_action(1));
    EXPECT_TRUE(plan.is_send_action(2));
    EXPECT_FALSE(plan.is_send_action(3));
    EXPECT_EQ(Plan::lowered_of(2), 1u);
    EXPECT_EQ(Plan::lowered_of(3), 1u);

    const std::vector<std::uint32_t> expected_deps = {0, 1, 1, 1};
    EXPECT_EQ(plan.dep_count, expected_deps);

    const auto successors = [&plan](std::uint32_t id) {
        std::vector<std::uint32_t> out(
            plan.succ.begin() + plan.succ_begin[id],
            plan.succ.begin() + plan.succ_begin[id + 1]);
        std::ranges::sort(out);
        return out;
    };
    EXPECT_EQ(successors(0), std::vector<std::uint32_t>{1});
    EXPECT_EQ(successors(1), std::vector<std::uint32_t>{2});
    EXPECT_EQ(successors(2), std::vector<std::uint32_t>{3});
    EXPECT_EQ(successors(3), std::vector<std::uint32_t>{});
}

TEST(RtPlan, CapacityEdgesThrottleChannelReuseToRingDepth) {
    // Four sends down one link, ring depth 2: the k-th send must wait for
    // the (k-2)-th receive (capacity edge) on top of the ring-order edge
    // from the (k-1)-th send, so the channel can never hold more than two
    // in-flight blocks no matter how threads interleave.
    Schedule s;
    s.n = 1;
    s.packet_count = 4;
    s.initial_holder = {0, 0, 0, 0};
    s.sends = {{0, 0, 1, 0}, {1, 0, 1, 1}, {2, 0, 1, 2}, {3, 0, 1, 3}};
    const Plan plan =
        compile_plan(s, DataMode::move, 4, 2, /*async_depth=*/2);
    EXPECT_EQ(plan.async_depth, 2u);
    // Interleaved (send k = id 2k, recv k = id 2k+1). Sends: seed, +ring,
    // then +ring+capacity twice. Recvs: +data, then +data+ring.
    const std::vector<std::uint32_t> expected_deps = {0, 1, 1, 2,
                                                      2, 2, 2, 2};
    EXPECT_EQ(plan.dep_count, expected_deps);
}

TEST(RtPlan, CombineSameCycleExchangeOrdersSendBeforeAccumulation) {
    // Pairwise exchange (one recursive-doubling allreduce step): node 1
    // sends its partial to node 0 and node 0 sends its partial to node 1
    // in the same cycle. Listed 1 -> 0 first, node 0's receive lowers
    // *before* its send, so only a send-side edge can order the pair: the
    // send must read slot (0, p)'s pre-accumulation value, matching the
    // barrier oracle's sends-before-receives rule within a cycle.
    Schedule s;
    s.n = 1;
    s.packet_count = 1;
    s.initial_holder = {0};
    s.sends = {{0, 1, 0, 0}, {0, 0, 1, 0}};
    const Plan plan = compile_plan(s, DataMode::combine, 4, 2);
    // Interleaved: hop 0 (1 -> 0) is ids {0, 1}, hop 1 (0 -> 1) is {2, 3}.
    ASSERT_EQ(plan.action_count(), 4u);

    // Data edges 0 -> 1 and 2 -> 3; ordering edges 2 -> 1 (send before
    // the accumulation into its source slot) and 0 -> 3 (likewise, caught
    // on the receive side because there the send lowered first).
    const std::vector<std::uint32_t> expected_deps = {0, 2, 0, 2};
    EXPECT_EQ(plan.dep_count, expected_deps);
    const auto successors = [&plan](std::uint32_t id) {
        std::vector<std::uint32_t> out(
            plan.succ.begin() + plan.succ_begin[id],
            plan.succ.begin() + plan.succ_begin[id + 1]);
        std::ranges::sort(out);
        return out;
    };
    EXPECT_EQ(successors(0), (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(successors(2), (std::vector<std::uint32_t>{1, 3}));
}

TEST(RtPlan, EveryDependencyEdgePointsForward) {
    // The DAG argument from docs/RUNTIME.md, checked mechanically: every
    // edge's head sorts strictly after its tail in (cycle, sends-before-
    // recvs) order, so a feasible schedule can never compile into a
    // cyclic (deadlocking) dependency graph. The per-hop cycle comes from
    // the cycle CSR (binary search in the compact layout), which both
    // encodings carry.
    const auto check = [](const Plan& plan) {
        const auto key = [&plan](std::uint32_t id) -> std::uint64_t {
            const bool recv = !plan.is_send_action(id);
            const std::uint32_t cycle =
                plan.cycle_of_lowered(Plan::lowered_of(id));
            return std::uint64_t{cycle} * 2 + (recv ? 1 : 0);
        };
        for (std::uint32_t id = 0; id < plan.action_count(); ++id) {
            for (std::uint32_t e = plan.succ_begin[id];
                 e < plan.succ_begin[id + 1]; ++e) {
                ASSERT_LT(key(id), key(plan.succ[e]))
                    << "edge " << id << " -> " << plan.succ[e]
                    << " does not point forward";
            }
        }
    };
    check(compile_plan(routing::make_msbt_broadcast(
                           4, 0, 8, sim::PortModel::one_port_full_duplex),
                       DataMode::move, 2, 2));
    const sim::Schedule forward = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), routing::BroadcastDiscipline::port_oriented,
        3, sim::PortModel::one_port_full_duplex);
    check(compile_plan(routing::reverse_broadcast_for_reduce(forward, 0),
                       DataMode::combine, 2, 2));
    // Recursive-doubling allreduce: every node both sends and receives the
    // same slot in every cycle, so the send-before-accumulation edges
    // (which run send -> receive *within* a cycle) appear everywhere.
    Schedule allreduce;
    allreduce.n = 3;
    allreduce.packet_count = 1;
    allreduce.initial_holder = {0};
    for (std::uint32_t d = 0; d < 3; ++d) {
        for (node_t v = 0; v < 8; ++v) {
            allreduce.sends.push_back(
                {d, v, static_cast<node_t>(v ^ (node_t{1} << d)), 0});
        }
    }
    check(compile_plan(allreduce, DataMode::combine, 2, 2));
}

TEST(RtPlan, OneWorkerPlanCarriesNoDependencyGraph) {
    // A one-worker plan only ever runs the serial lowered-order walk, so
    // the compiler emits no graph — in either mode, at any ring depth —
    // while the action streams and the cycle CSR the walk reads stay.
    const sim::Schedule forward = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), routing::BroadcastDiscipline::port_oriented,
        3, sim::PortModel::one_port_full_duplex);
    const Plan plans[] = {
        compile_plan(forward, DataMode::move, 2, 1),
        compile_plan(forward, DataMode::move, 2, 1, /*async_depth=*/1),
        compile_plan(routing::reverse_broadcast_for_reduce(forward, 0),
                     DataMode::combine, 2, 1, /*async_depth=*/1),
    };
    for (const Plan& plan : plans) {
        EXPECT_TRUE(plan.dep_count.empty());
        EXPECT_TRUE(plan.succ_begin.empty());
        EXPECT_TRUE(plan.succ.empty());
        EXPECT_EQ(plan.footprint().dep_graph, 0u);
        EXPECT_EQ(plan.action_count(), 2 * forward.sends.size());
        EXPECT_EQ(plan.flat_cycle_begin.back(), forward.sends.size());
    }
    // The same schedule at two workers does carry it.
    const Plan two = compile_plan(forward, DataMode::move, 2, 2);
    EXPECT_GT(two.footprint().dep_graph, 0u);
}

// ------------------------------------------------------- layout selection

TEST(RtPlan, LayoutResolvesCompactInsideEnvelopeWideBeyond) {
    const Schedule chain = two_hop_chain();
    EXPECT_EQ(compile_plan(chain, DataMode::move, 4, 1).layout,
              PlanLayout::compact);
    EXPECT_EQ(compile_plan(chain, DataMode::move, 4, 1, 8,
                           PlanLayout::wide)
                  .layout,
              PlanLayout::wide);

    // A 21-cube is outside the compact envelope: automatic falls back to
    // the wide encoding, an explicit compact request is rejected.
    Schedule big;
    big.n = kCompactMaxDimension + 1;
    big.packet_count = 1;
    big.initial_holder = {0};
    big.sends = {{0, 0, 1, 0}};
    EXPECT_EQ(compile_plan(big, DataMode::move, 4, 1).layout,
              PlanLayout::wide);
    EXPECT_THROW((void)compile_plan(big, DataMode::move, 4, 1, 8,
                                    PlanLayout::compact),
                 check_error);
}

TEST(RtPlan, CompactEnvVarForcesWideLayout) {
    // HCUBE_PLAN_COMPACT=0 is the no-rebuild escape hatch: automatic
    // resolves to the wide reference encoding while it is set.
    ASSERT_EQ(setenv("HCUBE_PLAN_COMPACT", "0", 1), 0);
    const Plan wide = compile_plan(two_hop_chain(), DataMode::move, 4, 1);
    ASSERT_EQ(unsetenv("HCUBE_PLAN_COMPACT"), 0);
    EXPECT_EQ(wide.layout, PlanLayout::wide);
    EXPECT_FALSE(wide.flat_sends.empty());
    // Any other value (or absence) keeps the compact default.
    ASSERT_EQ(setenv("HCUBE_PLAN_COMPACT", "1", 1), 0);
    const Plan compact =
        compile_plan(two_hop_chain(), DataMode::move, 4, 1);
    ASSERT_EQ(unsetenv("HCUBE_PLAN_COMPACT"), 0);
    EXPECT_EQ(compact.layout, PlanLayout::compact);
}

// --------------------------------------- compact-vs-wide differential ----

/// Compiles `schedule` under both encodings and requires byte-identical
/// final memory from both engines — the wide layout is the pre-compaction
/// reference, so any decode slip in the packed accessors shows up here.
void expect_layouts_agree(const Schedule& schedule, DataMode mode,
                          const std::string& label) {
    SCOPED_TRACE(label);
    const Plan compact =
        compile_plan(schedule, mode, 4, 2, 8, PlanLayout::compact);
    const Plan wide = compile_plan(schedule, mode, 4, 2, 8, PlanLayout::wide);
    ASSERT_EQ(compact.layout, PlanLayout::compact);
    ASSERT_EQ(wide.layout, PlanLayout::wide);
    EXPECT_TRUE(compact.flat_sends.empty());
    EXPECT_TRUE(compact.sends.empty());
    EXPECT_EQ(compact.send_order.size(), wide.sends.size());
    EXPECT_LT(compact.resident_bytes(), wide.resident_bytes());

    const auto compare = [&](auto& packed_player, auto& ref_player,
                             const char* engine) {
        SCOPED_TRACE(engine);
        const PlayStats a = packed_player.play();
        const PlayStats b = ref_player.play();
        EXPECT_TRUE(a.clean());
        EXPECT_TRUE(b.clean());
        EXPECT_EQ(a.blocks_delivered, b.blocks_delivered);
        for (std::uint64_t s = 0; s < compact.total_slots; ++s) {
            const auto lhs = packed_player.block(compact.slot_node[s],
                                                 compact.slot_packet[s]);
            const auto rhs = ref_player.block(wide.slot_node[s],
                                              wide.slot_packet[s]);
            ASSERT_EQ(lhs.size(), rhs.size());
            ASSERT_EQ(std::memcmp(lhs.data(), rhs.data(),
                                  lhs.size() * sizeof(double)),
                      0)
                << "layouts diverge at slot " << s;
        }
    };
    Player barrier_packed(compact);
    Player barrier_ref(wide);
    compare(barrier_packed, barrier_ref, "barrier");
    AsyncPlayer async_packed(compact);
    AsyncPlayer async_ref(wide);
    compare(async_packed, async_ref, "async");
}

TEST(RtPlanLayoutDiff, EveryExportHookBothEngines) {
    using routing::BroadcastDiscipline;
    using routing::ScatterPolicy;
    for (const dim_t n : {4, 7}) {
        const std::string tag = " n=" + std::to_string(n);
        const auto sbt = trees::build_sbt(n, 0);
        const auto bst = trees::build_bst(n, 0);
        expect_layouts_agree(
            routing::make_tree_broadcast(
                sbt, BroadcastDiscipline::port_oriented, 4,
                sim::PortModel::one_port_full_duplex),
            DataMode::move, "sbt_bcast" + tag);
        expect_layouts_agree(
            routing::make_tree_broadcast(
                sbt, BroadcastDiscipline::paced, 4,
                sim::PortModel::one_port_full_duplex),
            DataMode::move, "sbt_paced_bcast" + tag);
        expect_layouts_agree(
            routing::make_msbt_broadcast(
                n, 0, static_cast<packet_t>(n) * 2,
                sim::PortModel::one_port_full_duplex),
            DataMode::move, "msbt_bcast" + tag);
        expect_layouts_agree(
            routing::make_tree_scatter(sbt, ScatterPolicy::descending, 2,
                                       sim::PortModel::one_port_full_duplex),
            DataMode::move, "sbt_scatter" + tag);
        expect_layouts_agree(
            routing::make_tree_scatter(bst, ScatterPolicy::cyclic, 2,
                                       sim::PortModel::one_port_full_duplex),
            DataMode::move, "bst_scatter" + tag);
        expect_layouts_agree(
            routing::make_tree_scatter(sbt, ScatterPolicy::per_port, 2,
                                       sim::PortModel::all_port),
            DataMode::move, "per_port_scatter" + tag);
        expect_layouts_agree(
            routing::make_tree_gather(sbt, ScatterPolicy::descending, 2,
                                      sim::PortModel::one_port_full_duplex),
            DataMode::move, "sbt_gather" + tag);
        expect_layouts_agree(
            routing::make_tree_gather(bst, ScatterPolicy::cyclic, 2,
                                      sim::PortModel::one_port_full_duplex),
            DataMode::move, "bst_gather" + tag);
        expect_layouts_agree(routing::make_allgather_schedule(n),
                             DataMode::move, "allgather" + tag);
        expect_layouts_agree(routing::make_alltoall_schedule(n, 1),
                             DataMode::move, "alltoall" + tag);
        expect_layouts_agree(
            routing::reverse_broadcast_for_reduce(
                routing::make_tree_broadcast(
                    sbt, BroadcastDiscipline::port_oriented, 3,
                    sim::PortModel::one_port_full_duplex),
                0),
            DataMode::combine, "reduce" + tag);
    }
}

// ------------------------------------------------ residency regression ---

TEST(RtPlanFootprint, ItemizedTotalsAndTrimmedCapacity) {
    const Plan plan = compile_plan(
        routing::make_msbt_broadcast(4, 0, 8,
                                     sim::PortModel::one_port_full_duplex),
        DataMode::move, 16, 3);
    const PlanFootprint f = plan.footprint();
    EXPECT_EQ(f.total(), f.actions + f.dep_graph + f.buckets + f.slots +
                             f.channels + f.arena);
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
/// widening or an accidental AoS mirror in the compact path fails loudly.
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

TEST(RtPlanFootprint, CompactShrinksSbtBroadcastActionEncoding) {
    // At n = 8 the compact sbt_broadcast action + bucket encoding is at
    // least 3x smaller than the wide reference encoding (32 + 8 bytes per
    // hop against the reference's 132). The ISSUE's >= 4x bar is an
    // *entry*-level number — it additionally drops the per-entry oracle
    // image — and is measured by bench_svc's footprint sweep.
    const Schedule schedule = routing::make_tree_broadcast(
        trees::build_sbt(8, 0), routing::BroadcastDiscipline::port_oriented,
        4, sim::PortModel::one_port_full_duplex);
    const Plan compact =
        compile_plan(schedule, DataMode::move, 4, 2, 8, PlanLayout::compact);
    const Plan wide =
        compile_plan(schedule, DataMode::move, 4, 2, 8, PlanLayout::wide);
    const PlanFootprint fc = compact.footprint();
    const PlanFootprint fw = wide.footprint();
    EXPECT_GE(fw.actions + fw.buckets, (fc.actions + fc.buckets) * 3)
        << "wide=" << fw.actions + fw.buckets
        << " compact=" << fc.actions + fc.buckets;
    EXPECT_LT(compact.resident_bytes(), wide.resident_bytes());
}

} // namespace
} // namespace hcube::rt
