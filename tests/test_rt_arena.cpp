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
#include "rt/communicator.hpp"
#include "rt/player.hpp"
#include "rt/verify.hpp"
#include "routing/schedule_export.hpp"
#include "svc/session.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
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
    // same packet count and block size view one arena, whatever their
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
    EXPECT_EQ(b.footprint().arena, 4 * b.arena_stride * sizeof(double) +
                                       4 * sizeof(std::uint64_t));
    const Plan more =
        compile_plan(broadcast_schedule(3, 5), DataMode::move, kBlock, 1);
    EXPECT_NE(more.arena, a.arena);
    const Plan wider = compile_plan(broadcast_schedule(3, 4),
                                    DataMode::move, kBlock + 8, 1);
    EXPECT_NE(wider.arena, a.arena);
}

/// Every move-mode schedule_export hook at cube dimension n.
std::vector<std::pair<std::string, Schedule>> move_hooks(hc::dim_t n) {
    const auto np = static_cast<sim::packet_t>(n);
    const auto sbt = trees::build_sbt(n, 0);
    const auto bst = trees::build_bst(n, 0);
    const PortModel one = PortModel::one_port_full_duplex;
    return {
        {"sbt_bcast",
         routing::make_tree_broadcast(
             sbt, BroadcastDiscipline::port_oriented, 4, one)},
        {"paced_bcast",
         routing::make_tree_broadcast(sbt, BroadcastDiscipline::paced, 3,
                                      one)},
        {"msbt_bcast", routing::make_msbt_broadcast(n, 0, 2 * np, one)},
        {"sbt_scatter",
         routing::make_tree_scatter(sbt, routing::ScatterPolicy::descending,
                                    2, one)},
        {"bst_scatter",
         routing::make_tree_scatter(bst, routing::ScatterPolicy::cyclic, 2,
                                    one)},
        {"per_port_scatter",
         routing::make_tree_scatter(sbt, routing::ScatterPolicy::per_port, 2,
                                    PortModel::all_port)},
        {"sbt_gather",
         routing::make_tree_gather(sbt, routing::ScatterPolicy::descending,
                                   2, one)},
        {"bst_gather",
         routing::make_tree_gather(bst, routing::ScatterPolicy::cyclic, 2,
                                   one)},
        {"allgather", routing::make_allgather_schedule(n)},
        {"alltoall", routing::make_alltoall_schedule(n, 1)},
    };
}

TEST(RtArena, DigestTableMatchesCanonicalChecksum) {
    // The table every move-mode check reads must hold exactly the digest
    // canonical_checksum regenerates, for every packet of every move hook.
    // Arenas above 64 MiB (alltoall at n=8 from B=256, at n=7 from
    // B=1020) are not built: the same (packet, B) digests are covered by
    // the smaller block sizes and dimensions, and the test stays small.
    constexpr std::uint64_t kMaxArenaBytes = 64ull << 20;
    std::set<std::pair<sim::packet_t, std::size_t>> checked;
    for (hc::dim_t n = 3; n <= 8; ++n) {
        for (const auto& [name, schedule] : move_hooks(n)) {
            for (const std::size_t b : {1u, 7u, 256u, 1020u, 1024u}) {
                if (schedule.packet_count * arena_stride_of(b) *
                        sizeof(double) >
                    kMaxArenaBytes) {
                    continue;
                }
                SCOPED_TRACE(name + " n=" + std::to_string(n) +
                             " B=" + std::to_string(b));
                const Plan plan =
                    compile_plan(schedule, DataMode::move, b, 1);
                const std::span<const std::uint64_t> digests =
                    plan.arena_digests();
                ASSERT_EQ(digests.size(), plan.packet_count);
                if (!checked.emplace(plan.packet_count, b).second) {
                    continue; // one shared arena per (packets, B)
                }
                for (sim::packet_t p = 0; p < plan.packet_count; ++p) {
                    ASSERT_EQ(digests[p], canonical_checksum(p, b))
                        << "packet " << p;
                }
            }
        }
    }
    // Two block sizes with one stride share no arena: their digests cover
    // different element counts.
    const Plan narrow =
        compile_plan(broadcast_schedule(4, 4), DataMode::move, 1020, 1);
    const Plan wide =
        compile_plan(broadcast_schedule(4, 4), DataMode::move, 1024, 1);
    EXPECT_EQ(narrow.arena_stride, wide.arena_stride);
    EXPECT_NE(narrow.arena, wide.arena);
    EXPECT_NE(narrow.arena_digests().data(), wide.arena_digests().data());
    for (sim::packet_t p = 0; p < 4; ++p) {
        EXPECT_EQ(narrow.arena_digests()[p], canonical_checksum(p, 1020));
        EXPECT_EQ(wide.arena_digests()[p], canonical_checksum(p, 1024));
        EXPECT_NE(narrow.arena_digests()[p], wide.arena_digests()[p]);
    }
}

TEST(RtArena, ConcurrentMoveCompilesShareOneDigestTable) {
    // Four threads compile and play same-shape broadcasts from different
    // roots at once: one arena, one digest table, every play clean.
    constexpr int kThreads = 4;
    std::vector<Plan> plans(kThreads);
    std::vector<int> clean(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Plan& plan = plans[static_cast<std::size_t>(t)];
            plan = compile_plan(
                routing::make_tree_broadcast(
                    trees::build_sbt(4, static_cast<hc::node_t>(t)),
                    BroadcastDiscipline::port_oriented, 3,
                    PortModel::one_port_full_duplex),
                DataMode::move, kBlock, 1);
            Player barrier(plan);
            AsyncPlayer async(plan);
            clean[static_cast<std::size_t>(t)] =
                barrier.play().clean() && async.play().clean() ? 1 : 0;
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (std::size_t t = 0; t < plans.size(); ++t) {
        EXPECT_EQ(clean[t], 1) << "thread " << t;
        EXPECT_EQ(plans[t].arena, plans[0].arena) << "thread " << t;
        EXPECT_EQ(plans[t].arena_digests().data(),
                  plans[0].arena_digests().data());
    }
    for (sim::packet_t p = 0; p < 3; ++p) {
        EXPECT_EQ(plans[0].arena_digests()[p], canonical_checksum(p, kBlock));
    }
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

/// Bumps the first element of the first block pushed, delivers the rest
/// untouched: exactly one delivered copy differs from its arena block.
class CorruptFirstPushHook final : public ft::ChannelFaultHook {
public:
    ft::PushVerdict on_push(std::uint32_t, std::uint32_t,
                            std::span<double> payload) noexcept override {
        if (!fired_) {
            fired_ = true;
            payload[0] += 1.0;
        }
        return ft::PushVerdict::deliver;
    }

private:
    bool fired_ = false;
};

TEST(RtArena, HoldingsCheckHashesEveryCopiedBlock) {
    // Only views that *are* the arena block share one hash per packet;
    // a copy-through slot is hashed on its own, so a copy that differs
    // from its arena block fails even when every other holder of that
    // packet views the arena.
    const Schedule schedule = broadcast_schedule(4, 2);
    const sim::CycleStats sim_stats =
        sim::execute_schedule(schedule, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 1);

    Player zero_copy(plan);
    ASSERT_TRUE(zero_copy.play().clean());
    EXPECT_TRUE(holdings_match(plan, zero_copy, sim_stats));

    AsyncPlayer copied(plan);
    PassThroughHook pass;
    copied.set_fault_hook(&pass);
    ASSERT_TRUE(copied.play().clean());
    EXPECT_TRUE(holdings_match(plan, copied, sim_stats));

    CorruptFirstPushHook corrupt;
    copied.set_fault_hook(&corrupt);
    EXPECT_FALSE(copied.play().clean());
    EXPECT_FALSE(holdings_match(plan, copied, sim_stats));
}

/// A player whose slot `cleared` reads as holding nothing — a lost block,
/// as holdings_match sees it.
template <class P>
struct ClearedSlot {
    const P& inner;
    std::uint64_t cleared;
    [[nodiscard]] std::span<const double>
    slot_block(std::uint64_t slot) const noexcept {
        return slot == cleared ? std::span<const double>{}
                               : inner.slot_block(slot);
    }
};

TEST(RtArena, HoldingsCheckFailsOnAClearedHeldSlot) {
    // Every slot of a move plan is held at the end of the run, so clearing
    // any one of them — a seed, a relay or a leaf — must fail the check.
    const Schedule schedule = broadcast_schedule(4, 2);
    const sim::CycleStats sim_stats =
        sim::execute_schedule(schedule, PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, kBlock, 1);
    AsyncPlayer player(plan);
    ASSERT_TRUE(player.play().clean());
    ASSERT_TRUE(holdings_match(plan, player, sim_stats));
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        EXPECT_FALSE(holdings_match(plan, ClearedSlot<AsyncPlayer>{player, s},
                                    sim_stats))
            << "slot " << s;
    }
}

TEST(RtArena, HoldingsCheckFailsOnAHeldPairWithNoSlot) {
    // The simulator holds one more pair than the plan has slots for (the
    // plan drops one of the schedule's sends): every slot the plan has is
    // correct, and only the held-pair count can catch the missing one.
    const Schedule schedule = broadcast_schedule(4, 2);
    const sim::CycleStats sim_stats =
        sim::execute_schedule(schedule, PortModel::one_port_full_duplex);
    // A send of the last cycle: its receiver never forwards the packet.
    Schedule truncated = schedule;
    truncated.sends.erase(std::ranges::max_element(
        truncated.sends, {}, &sim::ScheduledSend::cycle));
    const Plan plan = compile_plan(truncated, DataMode::move, kBlock, 1);
    AsyncPlayer player(plan);
    ASSERT_TRUE(player.play().clean());
    EXPECT_FALSE(holdings_match(plan, player, sim_stats));
}

TEST(RtArena, IdenticalMemoryComparesNonAliasedSlots) {
    const Plan plan =
        compile_plan(broadcast_schedule(4, 2), DataMode::move, kBlock, 1);
    Player ref(plan);
    ASSERT_TRUE(ref.play().clean());
    // Aliased slots (both zero-copy): identical without a compare.
    AsyncPlayer aliased(plan);
    ASSERT_TRUE(aliased.play().clean());
    EXPECT_TRUE(identical_memory(plan, ref, aliased));
    // Copy-through slots hold equal bytes at other addresses.
    AsyncPlayer copied(plan);
    PassThroughHook pass;
    copied.set_fault_hook(&pass);
    ASSERT_TRUE(copied.play().clean());
    EXPECT_TRUE(identical_memory(plan, ref, copied));
    // One copied slot differs from the oracle's arena view.
    CorruptFirstPushHook corrupt;
    copied.set_fault_hook(&corrupt);
    EXPECT_FALSE(copied.play().clean());
    EXPECT_FALSE(identical_memory(plan, ref, copied));
    EXPECT_FALSE(identical_memory(plan, copied, ref));
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

TEST(SvcArena, CorruptMoveArenaFailsTheFirstPass) {
    // A first pass reads every expected digest from the arena's table, but
    // still certifies the arena's bytes: a corrupt canonical block fails
    // broadcast, scatter and gather alike, and passes once restored.
    using svc::Op;
    const svc::Signature sigs[] = {
        {Op::broadcast, svc::Family::sbt, 4, 0, 4, kBlock,
         PortModel::one_port_full_duplex},
        {Op::scatter, svc::Family::sbt, 4, 2, 1, kBlock,
         PortModel::one_port_full_duplex},
        {Op::gather, svc::Family::bst, 4, 5, 1, kBlock,
         PortModel::one_port_full_duplex},
    };
    for (const svc::Signature& sig : sigs) {
        SCOPED_TRACE(sig.to_string());
        // The holder keeps the shape's arena alive for the fresh sessions.
        svc::Session holder(4, uncalibrated());
        ASSERT_TRUE(holder.execute(sig).verified);
        const Plan* plan = holder.cached_plan(sig);
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->mode, DataMode::move);
        auto* element = const_cast<double*>(plan->arena_block(0));
        const double saved = *element;
        *element += 1.0;

        svc::Session fresh(4, uncalibrated());
        const svc::ExecStats first = fresh.execute(sig);
        EXPECT_TRUE(first.oracle_checked);
        EXPECT_FALSE(first.verified);

        *element = saved;
        const svc::ExecStats again = fresh.execute(sig);
        EXPECT_TRUE(again.oracle_checked); // a failed pass is rerun
        EXPECT_TRUE(again.verified);
    }
}

TEST(RtArena, CorruptMoveArenaFailsTheCommunicator) {
    Params params;
    params.block_elems = kBlock;
    Communicator comm(4, params);
    const auto sbt = trees::build_sbt(4, 0);
    const std::function<Result()> runs[] = {
        [&] {
            return comm.broadcast(sbt, BroadcastDiscipline::port_oriented, 4);
        },
        [&] {
            return comm.scatter(sbt, routing::ScatterPolicy::descending, 1);
        },
        [&] {
            return comm.gather(sbt, routing::ScatterPolicy::descending, 1);
        },
    };
    // A plan of each run's shape keeps the arena it compiles against alive.
    const Plan holders[] = {
        compile_plan(broadcast_schedule(4, 4), DataMode::move, kBlock, 1),
        compile_plan(routing::make_tree_scatter(
                         sbt, routing::ScatterPolicy::descending, 1,
                         PortModel::one_port_full_duplex),
                     DataMode::move, kBlock, 1),
    };
    for (std::size_t r = 0; r < 3; ++r) {
        SCOPED_TRACE("run " + std::to_string(r));
        const Plan& holder = holders[r == 0 ? 0 : 1];
        auto* element = const_cast<double*>(holder.arena_block(0));
        const double saved = *element;
        *element += 1.0;
        EXPECT_FALSE(runs[r]().verified);
        *element = saved;
        EXPECT_TRUE(runs[r]().verified);
    }
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
