// Tests of the concurrent collective service (hcube::svc): the shared LRU
// cache, signature lowering, cost-model selection, the persistent Session
// (plan cache + oracle-image verification), and the Service front door
// (admission backpressure, FIFO dispatch, batching) — including 16 client
// threads submitting mixed requests concurrently, every one byte-verified.
#include "svc/service.hpp"

#include "common/check.hpp"
#include "common/lru_cache.hpp"
#include "rt/async_player.hpp"
#include "rt/plan.hpp"
#include "sim/cycle.hpp"
#include "svc/selector.hpp"
#include "svc/session.hpp"
#include "svc/signature.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace hcube::svc {
namespace {

using model::CommParams;
using sim::PortModel;

/// Synthetic machine constants with τ/t_c = 10^6: the broadcast crossover
/// lands at a few million elements — big enough that every "small" test
/// message stays on the SBT side, small enough for the bisection to find.
constexpr CommParams synthetic{1.0, 1e-6};

Signature sig_of(Op op, Family family, dim_t n, node_t root,
                 sim::packet_t packets, std::uint32_t block) {
    Signature s;
    s.op = op;
    s.family = family;
    s.n = n;
    s.root = root;
    s.packets = packets;
    s.block_elems = block;
    return s;
}

SessionParams fast_session() {
    SessionParams p;
    p.comm = synthetic; // skip calibration probes in unit tests
    return p;
}

// ---------------------------------------------------------------- LruCache

TEST(SvcLruCache, MissBuildThenHit) {
    LruCache<int, std::string> cache(4);
    int builds = 0;
    const auto factory = [&] {
        ++builds;
        return std::string("v");
    };
    EXPECT_EQ(cache.get_or_create(7, factory), "v");
    EXPECT_EQ(cache.get_or_create(7, factory), "v");
    EXPECT_EQ(builds, 1);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(SvcLruCache, EvictsLeastRecentlyUsed) {
    LruCache<int, int> cache(2);
    (void)cache.get_or_create(1, [] { return 10; });
    (void)cache.get_or_create(2, [] { return 20; });
    (void)cache.get(1); // touch 1: key 2 is now the LRU entry
    (void)cache.get_or_create(3, [] { return 30; });
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SvcLruCache, UnboundedNeverEvicts) {
    LruCache<int, int> cache(0);
    for (int k = 0; k < 64; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    EXPECT_EQ(cache.size(), 64u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SvcLruCache, CapacityOneKeepsOnlyTheNewestEntry) {
    LruCache<int, int> cache(1);
    EXPECT_EQ(cache.get_or_create(1, [] { return 10; }), 10);
    EXPECT_EQ(cache.get_or_create(2, [] { return 20; }), 20);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    // A hit on the sole resident entry must not evict it.
    EXPECT_EQ(cache.get(2).value_or(-1), 20);
    EXPECT_TRUE(cache.contains(2));
}

TEST(SvcLruCache, NeverEvictsTheEntryBeingInserted) {
    // One entry costlier than the whole budget: it is the `keep` entry of
    // its own insertion, so it stays resident alone (best-effort budget)
    // and evicts everything colder.
    LruCache<int, int> cache(10);
    (void)cache.get_or_create(1, [] { return 1; },
                              [](const int&) { return std::uint64_t{4}; });
    (void)cache.get_or_create(2, [] { return 2; },
                              [](const int&) { return std::uint64_t{4}; });
    const int big = cache.get_or_create(
        3, [] { return 3; }, [](const int&) { return std::uint64_t{99}; });
    EXPECT_EQ(big, 3);
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_EQ(cache.total_cost(), 99u);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SvcLruCache, ByteBudgetEvictsByCostNotCount) {
    // Budget 100: four cost-30 entries fit three at a time — inserting the
    // fourth evicts exactly one (the coldest), not down to a count.
    LruCache<int, int> cache(100);
    const auto cost = [](const int&) { return std::uint64_t{30}; };
    for (int k = 0; k < 4; ++k) {
        (void)cache.get_or_create(k, [k] { return k; }, cost);
    }
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.total_cost(), 90u);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.budget(), 100u);
}

TEST(SvcLruCache, UpdateCostRepricesAndEvictsColderEntries) {
    LruCache<int, int> cache(100);
    const auto cost = [](const int&) { return std::uint64_t{20}; };
    for (int k = 0; k < 4; ++k) {
        (void)cache.get_or_create(k, [k] { return k; }, cost);
    }
    EXPECT_EQ(cache.total_cost(), 80u);
    // Re-pricing the hottest entry to 70 pushes the total to 130: the two
    // coldest entries go, the re-priced entry itself is protected.
    cache.update_cost(3, 70);
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.total_cost(), 90u);
    cache.update_cost(42, 1); // unknown key: no-op
    EXPECT_EQ(cache.total_cost(), 90u);
}

TEST(SvcLruCache, ClearResetsResidencyAndCost) {
    LruCache<int, int> cache(8);
    (void)cache.get_or_create(1, [] { return 1; });
    (void)cache.get_or_create(2, [] { return 2; });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.total_cost(), 0u);
    // The recency list is empty too: fresh inserts and evictions work.
    for (int k = 0; k < 12; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    EXPECT_EQ(cache.size(), 8u);
}

TEST(SvcLruCache, EraseIfRemovesMatchesAndRefundsTheirCost) {
    LruCache<int, int> cache(100);
    const auto cost = [](const int& v) {
        return static_cast<std::uint64_t>(v);
    };
    for (int k = 1; k <= 4; ++k) {
        (void)cache.get_or_create(k, [k] { return 10 * k; }, cost);
    }
    EXPECT_EQ(cache.total_cost(), 100u);
    const std::size_t erased = cache.erase_if(
        [](const int& key, const int&) { return key % 2 == 0; });
    EXPECT_EQ(erased, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.total_cost(), 40u); // 10 + 30 refunded exactly
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(4));
    EXPECT_EQ(cache.stats().evictions, 2u);
    // The predicate sees the value too.
    EXPECT_EQ(cache.erase_if(
                  [](const int&, const int& value) { return value >= 30; }),
              1u);
    EXPECT_EQ(cache.total_cost(), 10u);
}

TEST(SvcLruCache, EraseIfKeepsTheRecencyListCoherent) {
    // Mass-erase the interior of the recency list, then drive the cache to
    // capacity: survivors must still evict in strict LRU order — a broken
    // unlink would corrupt the list and evict the wrong entries (or crash).
    LruCache<int, int> cache(4);
    for (int k = 0; k < 4; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    (void)cache.get(0); // recency (cold to hot): 1, 2, 3, 0
    EXPECT_EQ(cache.erase_if(
                  [](const int& key, const int&) { return key == 2; }),
              1u);
    EXPECT_EQ(cache.size(), 3u);
    // Fill back up and overflow by one: the coldest survivor (1) goes.
    (void)cache.get_or_create(5, [] { return 5; });
    (void)cache.get_or_create(6, [] { return 6; });
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_TRUE(cache.contains(6));

    // Erasing everything leaves a healthy empty list.
    EXPECT_EQ(cache.erase_if([](const int&, const int&) { return true; }),
              4u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.total_cost(), 0u);
    for (int k = 10; k < 16; ++k) {
        (void)cache.get_or_create(k, [k] { return k; });
    }
    EXPECT_EQ(cache.size(), 4u);
}

TEST(SvcLruCache, ConcurrentGetOrCreateConverges) {
    LruCache<int, int> cache(8);
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::vector<int> seen(8, -1);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            seen[static_cast<std::size_t>(t)] = cache.get_or_create(5, [&] {
                builds.fetch_add(1);
                return 55;
            });
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (const int v : seen) {
        EXPECT_EQ(v, 55);
    }
    EXPECT_GE(builds.load(), 1); // raced duplicate builds are discarded
}

// --------------------------------------------------------------- Signature

TEST(SvcSignature, MsbtBroadcastRequiresDivisiblePackets) {
    EXPECT_NO_THROW(
        (void)make_schedule(sig_of(Op::broadcast, Family::msbt, 3, 0, 6, 8)));
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::broadcast, Family::msbt, 3, 0, 7, 8)),
        check_error);
}

TEST(SvcSignature, RejectsFamilyOpMismatches) {
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::broadcast, Family::bst, 3, 0, 4, 8)),
        check_error);
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::scatter, Family::msbt, 3, 0, 2, 8)),
        check_error);
    EXPECT_THROW(
        (void)make_schedule(sig_of(Op::reduce, Family::bst, 3, 0, 2, 8)),
        check_error);
}

TEST(SvcSignature, ReduceLowersToCombineModeWithForwardFeasibility) {
    const GeneratedSchedule gen =
        make_schedule(sig_of(Op::reduce, Family::sbt, 3, 2, 2, 8));
    EXPECT_EQ(gen.mode, rt::DataMode::combine);
    EXPECT_EQ(gen.exec.sends.size(), gen.feasibility.sends.size());
    // Every packet starts at the reduction root in the combining schedule.
    for (const node_t holder : gen.exec.initial_holder) {
        EXPECT_EQ(holder, 2u);
    }
}

// ---------------------------------------------------------------- Selector

TEST(SvcSelector, SbtBelowCrossoverMsbtAbove) {
    const AlgorithmSelector selector(synthetic);
    const PortModel model = PortModel::one_port_full_duplex;
    for (const dim_t n : {3, 4, 6}) {
        const std::uint64_t cross = selector.broadcast_crossover(n, model);
        ASSERT_GT(cross, 1u);
        const Selection below =
            selector.select(Op::broadcast, n, cross - 1, model);
        const Selection above =
            selector.select(Op::broadcast, n, cross, model);
        EXPECT_EQ(below.family, Family::sbt) << "n=" << n;
        EXPECT_EQ(above.family, Family::msbt) << "n=" << n;
        EXPECT_LT(below.predicted_seconds, below.rejected_seconds);
        EXPECT_LT(above.predicted_seconds, above.rejected_seconds);
    }
}

TEST(SvcSelector, MsbtPacketizationIsDivisibleAndCovers) {
    const AlgorithmSelector selector(synthetic);
    const PortModel model = PortModel::one_port_full_duplex;
    const dim_t n = 4;
    const std::uint64_t big = selector.broadcast_crossover(n, model) * 4;
    const Selection sel = selector.select(Op::broadcast, n, big, model);
    ASSERT_EQ(sel.family, Family::msbt);
    EXPECT_EQ(sel.packets % static_cast<sim::packet_t>(n), 0u);
    EXPECT_GE(std::uint64_t{sel.packets} * sel.block_elems, big);
}

TEST(SvcSelector, SingleVsPipelinedPacketRegimes) {
    const AlgorithmSelector selector(synthetic);
    const PortModel model = PortModel::one_port_full_duplex;
    // One-packet regime: the SBT sends the whole message once per
    // dimension (B_opt = M, a single packet).
    const Selection small = selector.select(Op::broadcast, 4, 100, model);
    EXPECT_EQ(small.family, Family::sbt);
    EXPECT_EQ(small.packets, 1u);
    EXPECT_EQ(small.block_elems, 100u);
    // Far above the crossover the MSBT pipelines many packets.
    const std::uint64_t big =
        selector.broadcast_crossover(4, model) * 16;
    const Selection large = selector.select(Op::broadcast, 4, big, model);
    EXPECT_EQ(large.family, Family::msbt);
    EXPECT_GT(large.packets, 1u);
}

TEST(SvcSelector, ScatterPrefersBalancedTree) {
    const AlgorithmSelector selector(synthetic);
    const Selection sel = selector.select(
        Op::scatter, 4, 64, PortModel::one_port_full_duplex);
    EXPECT_EQ(sel.family, Family::bst);
    EXPECT_EQ(sel.packets, 1u);
}

// ----------------------------------------------------------------- Session

TEST(SvcSession, ExecutesEveryOpVerified) {
    Session session(3, fast_session());
    const std::vector<Signature> sigs = {
        sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16),
        sig_of(Op::broadcast, Family::msbt, 3, 1, 6, 16),
        sig_of(Op::scatter, Family::bst, 3, 0, 2, 16),
        sig_of(Op::gather, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::allgather, Family::sbt, 3, 0, 1, 16),
        sig_of(Op::alltoall, Family::sbt, 3, 0, 1, 16),
    };
    for (const Signature& sig : sigs) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.verified) << sig.to_string();
        EXPECT_FALSE(stats.cache_hit) << sig.to_string();
        EXPECT_TRUE(stats.oracle_checked) << sig.to_string();
        EXPECT_GT(stats.blocks_delivered, 0u) << sig.to_string();
        EXPECT_EQ(stats.exec_mode, rt::ExecMode::serial) << sig.to_string();
    }
    EXPECT_EQ(session.cached_plans(), sigs.size());
}

TEST(SvcSession, VerifyFirstChecksOracleOncePerSignature) {
    Session session(3, fast_session());
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    const ExecStats first = session.execute(sig);
    EXPECT_TRUE(first.verified);
    EXPECT_TRUE(first.oracle_checked);
    EXPECT_FALSE(first.cache_hit);
    for (int i = 0; i < 3; ++i) {
        const ExecStats repeat = session.execute(sig);
        EXPECT_TRUE(repeat.verified);
        EXPECT_FALSE(repeat.oracle_checked); // steady state: image memcmp
        EXPECT_TRUE(repeat.cache_hit);
    }
    const hcube::CacheStats stats = session.cache_stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
}

TEST(SvcSession, VerifyAlwaysRerunsOracleEveryTime) {
    SessionParams params = fast_session();
    params.verify = rt::Verify::always;
    Session session(3, params);
    const Signature sig = sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16);
    for (int i = 0; i < 3; ++i) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.verified);
        EXPECT_TRUE(stats.oracle_checked);
    }
}

TEST(SvcSession, VerifyNeverStillByteChecksHoldings) {
    SessionParams params = fast_session();
    params.verify = rt::Verify::never;
    Session session(3, params);
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    for (int i = 0; i < 2; ++i) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.verified);
        EXPECT_FALSE(stats.oracle_checked);
    }
}

TEST(SvcSession, BarrierEngineMatchesMakespanInSteadyState) {
    SessionParams params = fast_session();
    params.engine = rt::Engine::barrier;
    Session session(3, params);
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    for (int i = 0; i < 3; ++i) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.verified);
        EXPECT_EQ(stats.rt_cycles, stats.sim_makespan);
    }
}

TEST(SvcSession, CacheEvictionRecompiles) {
    SessionParams params = fast_session();
    params.plan_cache_capacity = 2;
    Session session(3, params);
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature b = sig_of(Op::broadcast, Family::sbt, 3, 1, 2, 16);
    const Signature c = sig_of(Op::broadcast, Family::sbt, 3, 2, 2, 16);
    EXPECT_FALSE(session.execute(a).cache_hit);
    EXPECT_FALSE(session.execute(b).cache_hit);
    EXPECT_TRUE(session.execute(b).cache_hit);
    EXPECT_FALSE(session.execute(c).cache_hit); // evicts a (the LRU entry)
    EXPECT_EQ(session.cached_plans(), 2u);
    EXPECT_EQ(session.cache_stats().evictions, 1u);
    const ExecStats again = session.execute(a); // recompiled, re-verified
    EXPECT_FALSE(again.cache_hit);
    EXPECT_TRUE(again.oracle_checked);
    EXPECT_TRUE(again.verified);
}

TEST(SvcSession, PlanSignatureFollowsSelector) {
    Session session(4, fast_session());
    const Signature small = session.plan_signature(Op::broadcast, 0, 128);
    EXPECT_EQ(small.family, Family::sbt);
    EXPECT_EQ(small.n, 4);
    const std::uint64_t big =
        session.selector().broadcast_crossover(
            4, PortModel::one_port_full_duplex) *
        4;
    const Signature large = session.plan_signature(Op::broadcast, 0, big);
    EXPECT_EQ(large.family, Family::msbt);
    EXPECT_TRUE(session.execute(small).verified);
}

TEST(SvcSession, RejectsWrongDimension) {
    Session session(3, fast_session());
    EXPECT_THROW((void)session.execute(
                     sig_of(Op::broadcast, Family::sbt, 4, 0, 2, 16)),
                 check_error);
    EXPECT_THROW((void)session.execute(
                     sig_of(Op::broadcast, Family::sbt, 0, 0, 2, 16)),
                 check_error);
}

TEST(SvcSession, ServesMixedSubCubeDimensions) {
    // One session, one byte budget, signatures from 1-cube to 4-cube: the
    // residency story the byte-budgeted cache exists for.
    Session session(4, fast_session());
    for (dim_t n = 1; n <= 4; ++n) {
        const ExecStats stats = session.execute(
            sig_of(Op::broadcast, Family::sbt, n, 0, 2, 16));
        EXPECT_TRUE(stats.verified) << "n=" << int{n};
        EXPECT_GT(stats.plan_resident_bytes, 0u) << "n=" << int{n};
    }
    EXPECT_EQ(session.cached_plans(), 4u);
}

TEST(SvcSession, ReportsExactResidentBytes) {
    Session session(3, fast_session());
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    const Signature b = sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16);
    const ExecStats sa = session.execute(a);
    const ExecStats sb = session.execute(b);
    EXPECT_GT(sa.plan_resident_bytes, 0u);
    EXPECT_GT(sb.plan_resident_bytes, 0u);
    // Entry-count mode still tracks resident cost (one unit per entry).
    EXPECT_EQ(session.cache_resident_bytes(), 2u);
    // A hit reports the same entry bytes as the compile that built it.
    const ExecStats repeat = session.execute(a);
    EXPECT_TRUE(repeat.cache_hit);
    EXPECT_EQ(repeat.plan_resident_bytes, sa.plan_resident_bytes);

    // Under a byte budget each entry is charged exactly its parts, rebuilt
    // here independently: a one-worker, depth-1 plan and its async player
    // after one play.
    const auto parts = [](const Signature& sig, std::uint64_t& ring_bytes,
                          std::uint64_t& dep_graph_bytes) {
        const GeneratedSchedule gen = make_schedule(sig);
        const rt::Plan plan =
            rt::compile_plan(gen.exec, gen.mode, sig.block_elems, 1, 1);
        rt::AsyncPlayer player(plan);
        EXPECT_TRUE(player.play().clean());
        ring_bytes = player.ring_bytes();
        dep_graph_bytes = plan.footprint().dep_graph;
        return plan.resident_bytes() + player.resident_bytes();
    };
    std::uint64_t rings = 0;
    std::uint64_t dep_graph = 0;
    SessionParams budget = fast_session();
    budget.plan_cache_bytes = 64u << 20;
    {
        // A move-mode entry in steady state (the oracle player and the
        // full-check state dropped after its first verified pass): plan
        // and player only, with no rings and no dependency graph.
        Session priced(3, budget);
        (void)priced.execute(a);
        const ExecStats steady = priced.execute(a);
        EXPECT_TRUE(steady.verified);
        EXPECT_EQ(steady.plan_resident_bytes, parts(a, rings, dep_graph));
        EXPECT_EQ(rings, 0u);
        EXPECT_EQ(dep_graph, 0u);
        EXPECT_EQ(priced.cache_resident_bytes(), steady.plan_resident_bytes);
        // The player charges its slot views and nothing else: the digests
        // it checks against are the arena's table, charged once, by the
        // plan, next to the padded canonical blocks.
        const rt::Plan* plan = priced.cached_plan(a);
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(steady.plan_resident_bytes,
                  plan->resident_bytes() +
                      plan->total_slots * sizeof(const double*));
        EXPECT_EQ(plan->arena_digests().size(), a.packets);
        EXPECT_EQ(plan->footprint().arena,
                  a.packets * plan->arena_stride * sizeof(double) +
                      a.packets * sizeof(std::uint64_t));
    }
    {
        // A combine-mode entry under Verify::never runs no oracle, yet its
        // first play builds the rings copy-through needs — and the cache
        // charge follows. It keeps the full-check state (schedules and
        // delivery matrix) its first-principles checks read every run.
        budget.verify = rt::Verify::never;
        Session priced(3, budget);
        const ExecStats first = priced.execute(b);
        EXPECT_TRUE(first.verified);
        EXPECT_FALSE(first.oracle_checked);
        const GeneratedSchedule gen = make_schedule(b);
        const auto schedule_bytes = [](const sim::Schedule& sched) {
            return sched.sends.capacity() * sizeof(sim::ScheduledSend) +
                   sched.initial_holder.capacity() * sizeof(node_t);
        };
        const std::uint64_t full_check_state =
            schedule_bytes(gen.exec) + schedule_bytes(gen.feasibility) +
            sim::execute_schedule(gen.feasibility, b.model)
                .delivery_cycle.resident_bytes();
        EXPECT_EQ(first.plan_resident_bytes,
                  parts(b, rings, dep_graph) + full_check_state);
        EXPECT_GT(rings, 0u);
        EXPECT_EQ(dep_graph, 0u);
        EXPECT_EQ(priced.cache_resident_bytes(), first.plan_resident_bytes);
        // Part of the plan's charge is its share of the contribution arena
        // it seeds from: every node's 16-element (one stride) block for
        // each of the 2 packets.
        const rt::Plan* plan = priced.cached_plan(b);
        ASSERT_NE(plan, nullptr);
        const std::uint64_t arena_bytes = 8u * 2 * 16 * sizeof(double);
        EXPECT_EQ(plan->footprint().arena, arena_bytes);
        EXPECT_EQ(plan->arena->elements().size_bytes(), arena_bytes);
        EXPECT_GT(first.plan_resident_bytes, arena_bytes);
    }
}

TEST(SvcSession, ByteBudgetEvictsColdPlans) {
    // Measure one entry, then budget the next session at 1.5 entries: two
    // same-shape signatures can never be resident together.
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16);
    const Signature b = sig_of(Op::broadcast, Family::sbt, 3, 1, 4, 16);
    std::uint64_t entry_bytes = 0;
    {
        SessionParams params = fast_session();
        params.plan_cache_bytes = 64u << 20;
        Session probe(3, params);
        entry_bytes = probe.execute(a).plan_resident_bytes;
        ASSERT_GT(entry_bytes, 0u);
        EXPECT_EQ(probe.cache_resident_bytes(), entry_bytes);
    }
    SessionParams params = fast_session();
    params.plan_cache_bytes = entry_bytes + entry_bytes / 2;
    Session session(3, params);
    EXPECT_FALSE(session.execute(a).cache_hit);
    EXPECT_FALSE(session.execute(b).cache_hit); // evicts a
    EXPECT_EQ(session.cached_plans(), 1u);
    EXPECT_EQ(session.cache_stats().evictions, 1u);
    EXPECT_LE(session.cache_resident_bytes(), params.plan_cache_bytes);
    const ExecStats again = session.execute(a); // recompiled, re-verified
    EXPECT_FALSE(again.cache_hit);
    EXPECT_TRUE(again.oracle_checked);
    EXPECT_TRUE(again.verified);
}

TEST(SvcSession, ByteBudgetHoldsManySmallPlans) {
    // A generous budget keeps a whole mixed population resident: repeats
    // are all steady-state hits and the charged bytes stay within budget.
    SessionParams params = fast_session();
    params.plan_cache_bytes = 64u << 20;
    Session session(5, params);
    std::vector<Signature> sigs;
    for (dim_t n = 2; n <= 5; ++n) {
        for (node_t root = 0; root < 4; ++root) {
            sigs.push_back(sig_of(Op::broadcast, Family::sbt, n,
                                  root % (node_t{1} << n), 2, 16));
        }
    }
    for (const Signature& sig : sigs) {
        EXPECT_TRUE(session.execute(sig).verified);
    }
    for (const Signature& sig : sigs) {
        const ExecStats stats = session.execute(sig);
        EXPECT_TRUE(stats.cache_hit) << sig.to_string();
        EXPECT_TRUE(stats.verified) << sig.to_string();
    }
    EXPECT_EQ(session.cache_stats().evictions, 0u);
    EXPECT_LE(session.cache_resident_bytes(), params.plan_cache_bytes);
    EXPECT_GT(session.cache_resident_bytes(), 0u);
}

TEST(SvcSession, WideLayoutSessionStaysVerified) {
    // The HCUBE_PLAN_COMPACT=0 equivalent, selected through params: the
    // wide reference encoding must verify identically through the full
    // session path (compile, cache, steady-state byte checks).
    SessionParams params = fast_session();
    params.plan_layout = rt::PlanLayout::wide;
    Session session(3, params);
    const Signature sig = sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(session.execute(sig).verified);
    }
}

TEST(SvcSession, ConcurrentExecuteOnCallerThreads) {
    // No pool admission serializes executions any more: four caller
    // threads run Session::execute at once — each on its own signature
    // and all on one shared signature — while a fifth flips a membership
    // transition back and forth under them. Every result must verify on
    // the serial walk. (Run under TSan by the Svc tsan leg.)
    SessionParams params = fast_session();
    params.plan_cache_bytes = 64u << 20; // exercise concurrent re-pricing
    Session session(4, params);
    const Signature shared = sig_of(Op::reduce, Family::sbt, 4, 0, 2, 16);
    constexpr int kThreads = 4;
    constexpr int kIters = 24;
    std::atomic<int> executed{0};
    std::atomic<int> bad{0};
    std::atomic<bool> done{false};
    std::thread churn([&] {
        // Node 15 is in no signature's root set, so every signature stays
        // admissible; n=4 plans re-key on each transition, n=3 plans stay.
        while (!done.load()) {
            (void)session.leave(15);
            (void)session.join(15);
        }
    });
    std::vector<std::thread> callers;
    for (int t = 0; t < kThreads; ++t) {
        callers.emplace_back([&, t] {
            const auto root = static_cast<node_t>(t);
            const Signature own[] = {
                sig_of(Op::broadcast, Family::sbt, 4, root, 2, 16),
                sig_of(Op::gather, Family::sbt, 3, root, 2, 16),
            };
            for (int i = 0; i < kIters; ++i) {
                const Signature& sig = i % 3 == 0 ? shared : own[i % 2];
                const ExecStats stats = session.execute(sig);
                if (!stats.verified ||
                    stats.exec_mode != rt::ExecMode::serial) {
                    bad.fetch_add(1);
                }
                executed.fetch_add(1);
            }
        });
    }
    for (std::thread& th : callers) {
        th.join();
    }
    done.store(true);
    churn.join();
    EXPECT_EQ(executed.load(), kThreads * kIters);
    EXPECT_EQ(bad.load(), 0);
    EXPECT_LE(session.cache_resident_bytes(), params.plan_cache_bytes);
}

// ----------------------------------------------------------------- Service

ServiceParams fast_service() {
    ServiceParams p;
    p.session = fast_session();
    return p;
}

TEST(SvcService, RunExecutesAndVerifies) {
    Service service(3, fast_service());
    const Response r =
        service.run(sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16));
    EXPECT_EQ(r.status, Status::ok);
    EXPECT_TRUE(r.stats.verified);
    EXPECT_FALSE(r.batched);
}

TEST(SvcService, InvalidSignatureFailsWithError) {
    Service service(3, fast_service());
    const Response r =
        service.run(sig_of(Op::broadcast, Family::msbt, 3, 0, 7, 16));
    EXPECT_EQ(r.status, Status::failed);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(service.counters().failed, 1u);
}

TEST(SvcService, RejectPolicyBouncesWhenQueueFull) {
    ServiceParams params = fast_service();
    params.queue_depth = 2;
    params.admission = Admission::reject;
    Service service(3, params);
    service.pause(); // queue fills deterministically
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    std::vector<std::future<Response>> admitted;
    admitted.push_back(service.submit(sig));
    admitted.push_back(service.submit(sig));
    std::future<Response> bounced = service.submit(sig);
    ASSERT_EQ(bounced.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(bounced.get().status, Status::rejected);
    EXPECT_EQ(service.counters().rejected, 1u);
    service.resume();
    for (auto& f : admitted) {
        const Response r = f.get();
        EXPECT_EQ(r.status, Status::ok);
        EXPECT_TRUE(r.stats.verified);
    }
}

TEST(SvcService, BlockPolicyWaitsForASlot) {
    ServiceParams params = fast_service();
    params.queue_depth = 1;
    params.admission = Admission::block;
    Service service(3, params);
    service.pause();
    const Signature a = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature b = sig_of(Op::broadcast, Family::sbt, 3, 1, 2, 16);
    std::future<Response> first = service.submit(a); // fills the queue
    std::atomic<bool> admitted{false};
    std::thread blocked([&] {
        std::future<Response> second = service.submit(b); // blocks
        admitted.store(true);
        EXPECT_EQ(second.get().status, Status::ok);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(admitted.load()); // still backpressured
    service.resume();              // dispatcher drains; the slot frees
    blocked.join();
    EXPECT_TRUE(admitted.load());
    EXPECT_EQ(first.get().status, Status::ok);
}

TEST(SvcService, BatchingCoalescesEqualSignatures) {
    ServiceParams params = fast_service();
    params.queue_depth = 16;
    Service service(3, params);
    service.pause();
    const Signature hot = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    const Signature cold = sig_of(Op::scatter, Family::bst, 3, 0, 2, 16);
    std::vector<std::future<Response>> hot_futures;
    for (int i = 0; i < 4; ++i) {
        hot_futures.push_back(service.submit(hot));
    }
    std::future<Response> cold_future = service.submit(cold);
    service.resume();
    service.drain();
    int riders = 0;
    for (auto& f : hot_futures) {
        const Response r = f.get();
        EXPECT_EQ(r.status, Status::ok);
        EXPECT_TRUE(r.stats.verified);
        riders += r.batched ? 1 : 0;
    }
    EXPECT_EQ(riders, 3); // head executed, three rode along
    EXPECT_EQ(cold_future.get().status, Status::ok);
    const Service::Counters counters = service.counters();
    EXPECT_EQ(counters.submitted, 5u);
    EXPECT_EQ(counters.batched, 3u);
    EXPECT_EQ(counters.executed, 2u);
}

TEST(SvcService, DrainOutlivesQueuedWork) {
    Service service(3, fast_service());
    const Signature sig = sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(service.submit(sig));
    }
    service.drain();
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().status, Status::ok);
    }
}

// ------------------------------------------------------------- Concurrency

TEST(SvcConcurrent, SixteenClientsMixedOpsAllVerified) {
    ServiceParams params = fast_service();
    params.queue_depth = 256;
    Service service(3, params);
    const std::vector<Signature> mix = {
        sig_of(Op::broadcast, Family::sbt, 3, 0, 4, 16),
        sig_of(Op::broadcast, Family::msbt, 3, 0, 6, 16),
        sig_of(Op::scatter, Family::bst, 3, 0, 2, 16),
        sig_of(Op::gather, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::reduce, Family::sbt, 3, 0, 2, 16),
        sig_of(Op::allgather, Family::sbt, 3, 0, 1, 16),
    };
    constexpr int kClients = 16;
    constexpr int kPerClient = 6;
    std::atomic<int> verified{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const Signature& sig =
                    mix[static_cast<std::size_t>(c + i) % mix.size()];
                const Response r = service.run(sig);
                if (r.status == Status::ok && r.stats.verified) {
                    verified.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    EXPECT_EQ(verified.load(), kClients * kPerClient);
    // Six distinct signatures compiled once each; everything else hit the
    // cache (or rode along on a batched execution).
    EXPECT_EQ(service.session().cached_plans(), mix.size());
    const hcube::CacheStats stats = service.session().cache_stats();
    EXPECT_EQ(stats.misses, mix.size());
}

TEST(SvcConcurrent, ParallelSessionsShareNothing) {
    // Two sessions on different dimensions running concurrently exercise
    // the per-session pool isolation.
    std::atomic<bool> ok{true};
    std::thread t1([&] {
        Session s(3, fast_session());
        for (int i = 0; i < 4; ++i) {
            if (!s.execute(sig_of(Op::broadcast, Family::sbt, 3, 0, 2, 16))
                     .verified) {
                ok.store(false);
            }
        }
    });
    std::thread t2([&] {
        Session s(4, fast_session());
        for (int i = 0; i < 4; ++i) {
            if (!s.execute(sig_of(Op::alltoall, Family::sbt, 4, 0, 1, 16))
                     .verified) {
                ok.store(false);
            }
        }
    });
    t1.join();
    t2.join();
    EXPECT_TRUE(ok.load());
}

} // namespace
} // namespace hcube::svc
