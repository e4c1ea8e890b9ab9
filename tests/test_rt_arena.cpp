// Lifetime and aliasing tests of the zero-copy delivery path: move-mode
// plays must end with every held slot *pointing into the plan's immutable
// block arena* (pure view forwarding, zero payload memcpys), while combine
// plays and fault-hooked runs must fall back to copy-through storage that
// never aliases the arena. Replays — both on a raw player and through the
// service layer's plan cache — must leave the arena bit-identical.
//
// Suites are named Rt*/Svc* so the sanitizer CI jobs
// (ctest -R '^(Rt|Ft|Svc)') include them.
#include "rt/plan.hpp"

#include "ft/fault_model.hpp"
#include "model/broadcast_model.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/player.hpp"
#include "routing/schedule_export.hpp"
#include "svc/session.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using sim::PortModel;
using sim::Schedule;

constexpr std::size_t kBlock = 24; // deliberately not a multiple of 8

Schedule broadcast_schedule(hc::dim_t n, sim::packet_t packets) {
    return routing::make_tree_broadcast(trees::build_sbt(n, 0),
                                        BroadcastDiscipline::port_oriented,
                                        packets,
                                        PortModel::one_port_full_duplex);
}

/// Every slot of a clean move-mode run must be the arena's canonical block
/// for its packet — by *pointer identity*, which is what proves delivery
/// forwarded views instead of copying payloads.
template <class P>
void expect_all_views_in_arena(const Plan& plan, const P& player) {
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b =
            player.block(plan.slot_node[s], plan.slot_packet[s]);
        ASSERT_EQ(b.size(), plan.block_elems) << "slot " << s;
        EXPECT_EQ(b.data(), plan.arena_block(plan.slot_packet[s]))
            << "slot " << s << " holds a copy, not an arena view";
    }
}

TEST(RtArena, BlocksAreCacheLineAlignedAndCanonical) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 3), DataMode::move, kBlock, 2);
    ASSERT_EQ(plan.arena_stride % 8, 0u);
    ASSERT_GE(plan.arena_stride, plan.block_elems);
    for (sim::packet_t p = 0; p < 3; ++p) {
        const double* block = plan.arena_block(p);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % 64, 0u)
            << "packet " << p;
        EXPECT_EQ(block_checksum({block, plan.block_elems}),
                  canonical_checksum(p, plan.block_elems))
            << "packet " << p;
    }
}

TEST(RtArena, BarrierMovePlayForwardsViewsWithZeroCopies) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 2), DataMode::move, kBlock, 2);
    Player player(plan);
    const PlayStats stats = player.play();
    ASSERT_TRUE(stats.clean());
    EXPECT_EQ(stats.bytes_copied, 0u);
    expect_all_views_in_arena(plan, player);
}

TEST(RtArena, AsyncMovePlayForwardsViewsWithZeroCopies) {
    const Plan plan =
        compile_plan(broadcast_schedule(5, 2), DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);
    const PlayStats stats = player.play();
    ASSERT_TRUE(stats.clean());
    EXPECT_EQ(stats.bytes_copied, 0u);
    expect_all_views_in_arena(plan, player);
}

TEST(RtArena, ReplayLeavesTheArenaBitIdentical) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 4), DataMode::move, kBlock, 2);
    const std::span<const double> arena = plan.arena->elements();
    const std::vector<double> before(arena.begin(), arena.end());
    AsyncPlayer player(plan);
    ASSERT_TRUE(player.play().clean());
    ASSERT_TRUE(player.play().clean());
    expect_all_views_in_arena(plan, player);
    ASSERT_EQ(plan.arena->elements().size(), before.size());
    EXPECT_EQ(std::memcmp(arena.data(), before.data(),
                          before.size() * sizeof(double)),
              0)
        << "a play mutated the immutable arena";
}

TEST(RtArena, MovePlansOfOneShapeShareOneArena) {
    // Canonical blocks depend only on the packet id, so plans with the
    // same packet count and stride view one arena, whatever their
    // schedules; any other shape gets its own.
    const Plan a =
        compile_plan(broadcast_schedule(3, 4), DataMode::move, kBlock, 1);
    const Plan b =
        compile_plan(broadcast_schedule(4, 4), DataMode::move, kBlock, 2);
    EXPECT_EQ(a.arena, b.arena);
    EXPECT_EQ(a.arena_block(3), b.arena_block(3));
    EXPECT_EQ(b.arena->packets(), 4u);
    for (sim::packet_t p = 0; p < 4; ++p) {
        EXPECT_EQ(block_checksum({b.arena_block(p), kBlock}),
                  canonical_checksum(p, kBlock))
            << "packet " << p;
    }
    EXPECT_EQ(b.footprint().arena, 4 * b.arena_stride * sizeof(double));
    const Plan more =
        compile_plan(broadcast_schedule(3, 5), DataMode::move, kBlock, 1);
    EXPECT_NE(more.arena, a.arena);
    const Plan wider = compile_plan(broadcast_schedule(3, 4),
                                    DataMode::move, kBlock + 8, 1);
    EXPECT_NE(wider.arena, a.arena);
}

Schedule reduce_schedule(hc::dim_t n, hc::node_t root,
                         sim::packet_t packets) {
    return routing::reverse_broadcast_for_reduce(
        routing::make_tree_broadcast(trees::build_sbt(n, root),
                                     BroadcastDiscipline::port_oriented,
                                     packets,
                                     PortModel::one_port_full_duplex),
        root);
}

/// True if `block` lies anywhere inside the arena's storage.
bool aliases_arena(const BlockArena& arena, std::span<const double> block) {
    const std::span<const double> all = arena.elements();
    return block.data() + block.size() > all.data() &&
           block.data() < all.data() + all.size();
}

TEST(RtArena, CombinePlansUseDistinctAccumulatorStorage) {
    const Plan plan =
        compile_plan(reduce_schedule(3, 0, 2), DataMode::combine, kBlock, 2);
    // Combine plans seed from a contribution arena, but their accumulators
    // mutate in place: no slot may ever view the arena itself.
    ASSERT_NE(plan.arena, nullptr);
    Player player(plan);
    const PlayStats stats = player.play();
    ASSERT_TRUE(stats.clean());
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        EXPECT_FALSE(aliases_arena(*plan.arena, player.slot_block(s)))
            << "slot " << s << " aliases the contribution arena";
    }
    // Copy-through: every sent block was staged into the ring.
    EXPECT_EQ(stats.bytes_copied,
              stats.blocks_delivered * kBlock * sizeof(double));
}

TEST(RtArena, CombinePlansShareOneContributionArena) {
    // A contribution depends only on (node, packet), so every reduce of one
    // cube dimension, packet count and stride seeds from one arena,
    // whatever its root; any other shape gets its own.
    const Plan a =
        compile_plan(reduce_schedule(3, 0, 2), DataMode::combine, kBlock, 1);
    for (hc::node_t root = 1; root < 8; ++root) {
        const Plan b = compile_plan(reduce_schedule(3, root, 2),
                                    DataMode::combine, kBlock, 2);
        EXPECT_EQ(b.arena, a.arena) << "root " << root;
    }
    EXPECT_EQ(a.arena->packets(), 2u);
    EXPECT_EQ(a.footprint().arena,
              8 * 2 * a.arena_stride * sizeof(double));
    for (hc::node_t v = 0; v < 8; ++v) {
        for (sim::packet_t p = 0; p < 2; ++p) {
            std::vector<double> expected(kBlock);
            fill_contribution(expected, v, p);
            EXPECT_EQ(std::memcmp(a.arena->contribution(v, p),
                                  expected.data(),
                                  kBlock * sizeof(double)),
                      0)
                << "node " << v << " packet " << p;
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                          a.arena->contribution(v, p)) %
                          64,
                      0u);
        }
    }
    const Plan more =
        compile_plan(reduce_schedule(3, 0, 3), DataMode::combine, kBlock, 1);
    EXPECT_NE(more.arena, a.arena);
    const Plan wider = compile_plan(reduce_schedule(3, 0, 2),
                                    DataMode::combine, kBlock + 8, 1);
    EXPECT_NE(wider.arena, a.arena);
    const Plan larger =
        compile_plan(reduce_schedule(4, 0, 2), DataMode::combine, kBlock, 1);
    EXPECT_NE(larger.arena, a.arena);
    // Canonical and contribution blocks never share an arena.
    const Plan move =
        compile_plan(broadcast_schedule(3, 2), DataMode::move, kBlock, 1);
    EXPECT_NE(move.arena, a.arena);
}

TEST(RtArena, CombineReplayLeavesTheContributionArenaBitIdentical) {
    const Plan plan =
        compile_plan(reduce_schedule(4, 5, 3), DataMode::combine, kBlock, 1);
    const std::span<const double> arena = plan.arena->elements();
    const std::vector<double> before(arena.begin(), arena.end());
    Player barrier(plan);
    AsyncPlayer async(plan);
    for (int rep = 0; rep < 2; ++rep) {
        ASSERT_TRUE(barrier.play().clean());
        ASSERT_TRUE(async.play().clean());
    }
    ASSERT_EQ(plan.arena->elements().size(), before.size());
    EXPECT_EQ(std::memcmp(arena.data(), before.data(),
                          before.size() * sizeof(double)),
              0)
        << "a combine play mutated the contribution arena";
}

TEST(RtArena, TwoPlayersOfOnePlanKeepDistinctAccumulators) {
    const Plan plan =
        compile_plan(reduce_schedule(4, 0, 2), DataMode::combine, kBlock, 1);
    AsyncPlayer first(plan);
    AsyncPlayer second(plan);
    ASSERT_TRUE(first.play().clean());
    std::vector<std::vector<double>> image;
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b = first.slot_block(s);
        image.emplace_back(b.begin(), b.end());
    }
    // The second player's run neither reads nor writes the first's slots,
    // and both end in the same reduction.
    ASSERT_TRUE(second.play().clean());
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> a = first.slot_block(s);
        const std::span<const double> b = second.slot_block(s);
        ASSERT_EQ(a.size(), plan.block_elems);
        ASSERT_EQ(b.size(), plan.block_elems);
        EXPECT_NE(a.data(), b.data()) << "slot " << s << " is shared";
        EXPECT_EQ(std::memcmp(a.data(), image[s].data(),
                              a.size() * sizeof(double)),
                  0)
            << "slot " << s << " changed under another player's run";
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                  0)
            << "slot " << s;
    }
}

TEST(RtArena, ConcurrentCombineCompilesShareOneArena) {
    // Four threads compile and play same-shape reduces at once: the arena
    // registry hands every one of them the same arena (the plans stay alive
    // until all threads joined, so it is never rebuilt in between).
    constexpr int kThreads = 4;
    std::vector<Plan> plans(kThreads);
    std::vector<int> clean(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            plans[static_cast<std::size_t>(t)] = compile_plan(
                reduce_schedule(4, static_cast<hc::node_t>(t), 2),
                DataMode::combine, kBlock, 1);
            AsyncPlayer player(plans[static_cast<std::size_t>(t)]);
            clean[static_cast<std::size_t>(t)] =
                player.play().clean() ? 1 : 0;
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (std::size_t t = 0; t < plans.size(); ++t) {
        EXPECT_EQ(clean[t], 1) << "thread " << t;
        ASSERT_NE(plans[t].arena, nullptr);
        EXPECT_EQ(plans[t].arena, plans[0].arena) << "thread " << t;
    }
}

/// A hook that delivers everything untouched — its mere presence must
/// force copy-through (a hook may mutate staged bytes, which must never
/// alias the immutable arena).
class PassThroughHook final : public ft::ChannelFaultHook {
public:
    ft::PushVerdict on_push(std::uint32_t, std::uint32_t,
                            std::span<double>) noexcept override {
        return ft::PushVerdict::deliver;
    }
};

TEST(RtArena, FaultHookForcesCopyThroughAndClearingRestoresZeroCopy) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 2), DataMode::move, kBlock, 2);
    AsyncPlayer player(plan);

    PassThroughHook hook;
    player.set_fault_hook(&hook);
    const PlayStats hooked = player.play();
    ASSERT_TRUE(hooked.clean());
    EXPECT_EQ(hooked.bytes_copied,
              2 * hooked.blocks_delivered * kBlock * sizeof(double))
        << "hooked runs must stage into the ring and copy out again";
    // Copy-through still ends in the canonical final state (by value, not
    // by pointer — slots now live in player-owned storage).
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b =
            player.block(plan.slot_node[s], plan.slot_packet[s]);
        ASSERT_EQ(b.size(), plan.block_elems);
        EXPECT_NE(b.data(), plan.arena_block(plan.slot_packet[s]));
        EXPECT_EQ(block_checksum(b),
                  canonical_checksum(plan.slot_packet[s], plan.block_elems));
    }

    player.set_fault_hook(nullptr);
    const PlayStats clean = player.play();
    ASSERT_TRUE(clean.clean());
    EXPECT_EQ(clean.bytes_copied, 0u);
    expect_all_views_in_arena(plan, player);
}

TEST(SvcArena, CachedPlanReplaysStayVerifiedAndZeroCopy) {
    svc::SessionParams params;
    svc::Session session(4, params);
    const svc::Signature sig{svc::Op::broadcast, svc::Family::sbt, 4, 0, 4,
                             kBlock, PortModel::one_port_full_duplex};
    const svc::ExecStats first = session.execute(sig);
    EXPECT_TRUE(first.verified);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(first.bytes_copied, 0u);
    for (int rep = 0; rep < 3; ++rep) {
        const svc::ExecStats repeat = session.execute(sig);
        EXPECT_TRUE(repeat.verified);
        EXPECT_TRUE(repeat.cache_hit);
        EXPECT_EQ(repeat.bytes_copied, 0u)
            << "cache replay " << rep << " fell off the zero-copy path";
    }
}

/// A session that skips the calibration probes.
svc::SessionParams uncalibrated() {
    svc::SessionParams params;
    params.comm = model::ipsc_params();
    return params;
}

TEST(SvcArena, CorruptContributionArenaFailsBothVerificationPaths) {
    const svc::Signature sig{svc::Op::reduce, svc::Family::sbt, 4, 3, 2,
                             kBlock, PortModel::one_port_full_duplex};
    svc::Session steady(4, uncalibrated());
    ASSERT_TRUE(steady.execute(sig).verified);
    const svc::ExecStats warm = steady.execute(sig);
    ASSERT_TRUE(warm.verified);
    ASSERT_FALSE(warm.oracle_checked); // the entry is in steady state
    const Plan* plan = steady.cached_plan(sig);
    ASSERT_NE(plan, nullptr);
    ASSERT_NE(plan->arena, nullptr);

    // Every combine plan of this shape seeds from the one shared arena;
    // corrupt one element node 1 contributes to packet 0.
    auto* element = const_cast<double*>(plan->arena->contribution(1, 0));
    const double saved = *element;
    *element += 1.0;

    // First pass: barrier oracle and async engine seed from the same
    // corrupt arena and agree with each other, so only sums_match — which
    // recomputes the root's sums from contribution_element — can catch it.
    svc::Session fresh(4, uncalibrated());
    const svc::ExecStats first = fresh.execute(sig);
    EXPECT_TRUE(first.oracle_checked);
    EXPECT_FALSE(first.verified);
    // Steady state: the full-image memcmp against the first pass's oracle
    // image catches it.
    const svc::ExecStats hit = steady.execute(sig);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_FALSE(hit.oracle_checked);
    EXPECT_FALSE(hit.verified);

    *element = saved;
    EXPECT_TRUE(fresh.execute(sig).verified);
    EXPECT_TRUE(steady.execute(sig).verified);
}

TEST(SvcArena, SteadyStateCatchesAPerturbedSlotTable) {
    const svc::Signature sig{svc::Op::broadcast, svc::Family::sbt, 4, 0, 4,
                             kBlock, PortModel::one_port_full_duplex};
    svc::Session session(4, uncalibrated());
    ASSERT_TRUE(session.execute(sig).verified);
    ASSERT_TRUE(session.execute(sig).verified);
    auto* plan = const_cast<Plan*>(session.cached_plan(sig));
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->mode, DataMode::move);
    ASSERT_TRUE(plan->compact());

    // One slot's packet entry changes: the slot table no longer matches
    // the fingerprint stored on the first pass, nor the view the slot
    // holds.
    const std::uint64_t leaf = plan->total_slots - 1;
    const sim::packet_t saved = plan->slot_packet[leaf];
    plan->slot_packet[leaf] = (saved + 1) % plan->packet_count;
    EXPECT_FALSE(session.execute(sig).verified);
    plan->slot_packet[leaf] = saved;
    EXPECT_TRUE(session.execute(sig).verified);

    // Packets 0 and 1 swap labels everywhere — slot table and actions
    // alike. The play stays self-consistent (every view is the arena block
    // its slot names), so only the slot-table fingerprint sees it.
    const auto swap01 = [](sim::packet_t& p) {
        if (p < 2) {
            p ^= 1u;
        }
    };
    const auto relabel = [&] {
        std::ranges::for_each(plan->slot_packet, swap01);
        std::ranges::for_each(plan->act_packet, swap01);
    };
    relabel();
    const svc::ExecStats relabeled = session.execute(sig);
    EXPECT_EQ(relabeled.blocks_delivered, plan->lowered_count());
    EXPECT_FALSE(relabeled.verified);
    relabel();
    EXPECT_TRUE(session.execute(sig).verified);
}

} // namespace
} // namespace hcube::rt
