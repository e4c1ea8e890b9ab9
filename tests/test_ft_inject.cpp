// The inject → detect legs of hcube::ft: a FaultPlan armed on a compiled
// plan's channels must surface through the serial walk exactly as
// designed — kills and drops as arrival timeouts reported at the first
// empty ring, with no wait; corruption as a checksum mismatch; delays
// absorbed silently — and the first detected fault must name the injected
// directed link and the cycle of the lost receive in its structured
// FaultReport.
#include "ft/fault_model.hpp"
#include "ft/injector.hpp"

#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/plan.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace hcube::ft {
namespace {

using routing::BroadcastDiscipline;
using sim::packet_t;
using sim::PortModel;
using sim::Schedule;

Schedule sbt_broadcast(dim_t n, node_t root, packet_t packets) {
    return routing::make_tree_broadcast(
        trees::build_sbt(n, root), BroadcastDiscipline::paced, packets,
        PortModel::one_port_full_duplex);
}

/// Pushes the schedule makes per directed link, to aim mid-stream faults.
std::map<std::pair<node_t, node_t>, std::uint32_t>
pushes_per_link(const Schedule& s) {
    std::map<std::pair<node_t, node_t>, std::uint32_t> counts;
    for (const sim::ScheduledSend& send : s.sends) {
        ++counts[{send.from, send.to}];
    }
    return counts;
}

/// A link the schedule pushes at least two blocks across (so a mid-stream
/// fault is genuinely mid-broadcast), plus its total push count.
DirectedLink busy_link(const Schedule& s, std::uint32_t& count) {
    for (const auto& [link, pushes] : pushes_per_link(s)) {
        if (pushes >= 2) {
            count = pushes;
            return {link.first, link.second};
        }
    }
    ADD_FAILURE() << "no link carries two blocks";
    return {};
}

/// The schedule cycle of the k-th block sent across `link` — the cycle of
/// the receive that finds it missing when push k is lost (a link carries
/// at most one block per cycle).
std::uint32_t cycle_of_push(const Schedule& s, DirectedLink link,
                            std::uint32_t k) {
    std::vector<std::uint32_t> cycles;
    for (const sim::ScheduledSend& send : s.sends) {
        if (send.from == link.from && send.to == link.to) {
            cycles.push_back(send.cycle);
        }
    }
    std::ranges::sort(cycles);
    return cycles.at(k);
}

TEST(FtFaultPlan, FluentBuildersFillSpecs) {
    FaultPlan plan;
    plan.kill_link(0, 1, 3)
        .drop(1, 3, 2, 4)
        .corrupt(3, 7, 1, 2, 9)
        .delay(7, 5, 0, 250, 6);
    ASSERT_EQ(plan.specs().size(), 4u);

    const FaultSpec& kill = plan.specs()[0];
    EXPECT_EQ(kill.cls, InjectClass::kill_link);
    EXPECT_EQ(kill.link, (DirectedLink{0, 1}));
    EXPECT_EQ(kill.at_push, 3u);
    EXPECT_EQ(kill.pushes, ~std::uint32_t{0});

    const FaultSpec& drop = plan.specs()[1];
    EXPECT_EQ(drop.cls, InjectClass::transient_drop);
    EXPECT_EQ(drop.at_push, 2u);
    EXPECT_EQ(drop.pushes, 4u);

    const FaultSpec& corrupt = plan.specs()[2];
    EXPECT_EQ(corrupt.cls, InjectClass::corrupt_payload);
    EXPECT_EQ(corrupt.param, 9u);

    const FaultSpec& delay = plan.specs()[3];
    EXPECT_EQ(delay.cls, InjectClass::delay_delivery);
    EXPECT_EQ(delay.param, 250u);
    EXPECT_EQ(delay.pushes, 6u);
}

TEST(FtFaultPlan, RandomIsDeterministicOnDistinctCubeLinks) {
    constexpr dim_t n = 4;
    const FaultPlan a = FaultPlan::random(n, 7, 8);
    const FaultPlan b = FaultPlan::random(n, 7, 8);
    ASSERT_EQ(a.specs().size(), 8u);
    ASSERT_EQ(b.specs().size(), 8u);

    std::set<std::pair<node_t, node_t>> seen;
    for (std::size_t i = 0; i < a.specs().size(); ++i) {
        const FaultSpec& spec = a.specs()[i];
        EXPECT_EQ(spec.link, b.specs()[i].link);
        EXPECT_EQ(spec.cls, b.specs()[i].cls);
        EXPECT_EQ(spec.at_push, b.specs()[i].at_push);
        // Every drawn link is a real directed cube link, drawn once.
        EXPECT_LT(spec.link.from, node_t{1} << n);
        EXPECT_TRUE(std::has_single_bit(spec.link.from ^ spec.link.to));
        EXPECT_TRUE(
            seen.insert({spec.link.from, spec.link.to}).second);
    }
    // All four classes appear when count >= 4 (cycled deterministically).
    std::set<InjectClass> classes;
    for (const FaultSpec& spec : a.specs()) {
        classes.insert(spec.cls);
    }
    EXPECT_EQ(classes.size(), 4u);
}

TEST(FtInject, KillLinkTimesOutOnSerialWalk) {
    const Schedule schedule = sbt_broadcast(4, 0, 6);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.kill_link(dead.from, dead.to, count / 2);
    FaultInjector injector(faults);
    injector.arm(plan);
    EXPECT_EQ(injector.unmatched(), 0u);

    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();

    EXPECT_FALSE(stats.clean());
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_GE(injector.dropped(), 1u);
    const FaultReport& report = player.fault_report();
    // Every earlier block on the link was drained in its own cycle, so the
    // kill can only manifest as the receive finding its ring empty — on
    // the killed link, in the cycle of the first lost push.
    EXPECT_EQ(report.cls, DetectClass::arrival_timeout);
    EXPECT_EQ(report.from, dead.from);
    EXPECT_EQ(report.to, dead.to);
    EXPECT_EQ(report.cycle, cycle_of_push(schedule, dead, count / 2));
}

TEST(FtInject, SerialWalkReportsALostBlockWithoutWaiting) {
    // Every send of a cycle runs before its receives on the walk's one
    // thread, so an empty ring is a lost block and the report comes at
    // once. A bounded arrival wait would cost its full timeout (2 ms by
    // default before the ring stopped waiting) on every play.
    const Schedule schedule = sbt_broadcast(3, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 1);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.kill_link(dead.from, dead.to, count / 2);
    FaultInjector injector(faults);
    injector.arm(plan);

    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        injector.rewind();
        const rt::PlayStats stats = player.play();
        ASSERT_FALSE(stats.clean());
        const FaultReport& report = player.fault_report();
        ASSERT_EQ(report.cls, DetectClass::arrival_timeout);
        ASSERT_EQ(report.from, dead.from);
        ASSERT_EQ(report.to, dead.to);
        ASSERT_EQ(report.cycle, cycle_of_push(schedule, dead, count / 2));
        best = std::min(best, stats.seconds);
    }
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
    EXPECT_LT(best, 1e-3);
#endif
}

TEST(FtInject, CorruptionReportsChecksumMismatchWithLinkIdentity) {
    const Schedule schedule = sbt_broadcast(3, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink target = busy_link(schedule, count);
    FaultPlan faults;
    faults.corrupt(target.from, target.to, count / 2);
    FaultInjector injector(faults);
    injector.arm(plan);

    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();

    EXPECT_FALSE(stats.clean());
    EXPECT_GE(stats.checksum_failures, 1u);
    EXPECT_EQ(injector.corrupted(), 1u);
    const FaultReport& report = player.fault_report();
    EXPECT_EQ(report.cls, DetectClass::checksum_mismatch);
    EXPECT_EQ(report.from, target.from);
    EXPECT_EQ(report.to, target.to);
    EXPECT_EQ(report.cycle, cycle_of_push(schedule, target, count / 2));
}

TEST(FtInject, DelayIsAbsorbedByTheSerialWalk) {
    // An injected delay sleeps in the producer before it publishes, so the
    // block is on its ring by the time the receive pops it: no fault.
    const Schedule schedule = sbt_broadcast(3, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink slow = busy_link(schedule, count);
    FaultPlan faults;
    faults.delay(slow.from, slow.to, 0, 200, 2);

    FaultInjector injector(faults);
    injector.arm(plan);
    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(stats.blocks_delivered, schedule.sends.size());
    EXPECT_EQ(injector.delayed(), 2u);
    EXPECT_FALSE(player.fault_report().faulted());
}

TEST(FtInject, FaultOnUnusedLinkStaysInert) {
    const Schedule schedule = sbt_broadcast(3, 0, 3);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    // No broadcast schedule ever sends INTO its root, so this fault can
    // never land on a compiled channel.
    FaultPlan faults;
    faults.kill_link(1, 0, 0);
    FaultInjector injector(faults);
    injector.arm(plan);
    EXPECT_EQ(injector.unmatched(), 1u);

    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(stats.blocks_delivered, schedule.sends.size());
    EXPECT_EQ(injector.dropped(), 0u);
    EXPECT_FALSE(player.fault_report().faulted());
}

TEST(FtInject, DisabledDetectionKeepsLegacyCountersOnly) {
    const Schedule schedule = sbt_broadcast(4, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.kill_link(dead.from, dead.to, 0);
    FaultInjector injector(faults);
    injector.arm(plan);

    // Detection not armed: the walk keeps the pre-ft contract — count the
    // faults, never abort, no report.
    rt::AsyncPlayer player(plan);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();
    EXPECT_FALSE(stats.clean());
    EXPECT_GE(stats.channel_faults, 1u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_FALSE(player.fault_report().faulted());
}

TEST(FtInject, AsyncEngineNamesTheDroppedLink) {
    const Schedule schedule = sbt_broadcast(4, 0, 6);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 4);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.drop(dead.from, dead.to, count / 2, 1);
    FaultInjector injector(faults);
    injector.arm(plan);
    EXPECT_EQ(injector.unmatched(), 0u);

    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    const rt::PlayStats stats = player.play();

    EXPECT_FALSE(stats.clean());
    EXPECT_EQ(injector.dropped(), 1u);
    const FaultReport& report = player.fault_report();
    // The walk stops at the first empty ring, before the link's next push
    // could reach the ring head: the drop is always an arrival timeout.
    EXPECT_EQ(report.cls, DetectClass::arrival_timeout);
    EXPECT_EQ(report.from, dead.from);
    EXPECT_EQ(report.to, dead.to);
    EXPECT_EQ(report.cycle, cycle_of_push(schedule, dead, count / 2));
}

TEST(FtInject, RewindRearmsTheSameTransientFault) {
    const Schedule schedule = sbt_broadcast(3, 0, 4);
    const rt::Plan plan =
        rt::compile_plan(schedule, rt::DataMode::move, 16, 2);

    std::uint32_t count = 0;
    const DirectedLink dead = busy_link(schedule, count);
    FaultPlan faults;
    faults.drop(dead.from, dead.to, count / 2, 1);
    FaultInjector injector(faults);
    injector.arm(plan);

    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);

    // Idempotent re-execution: the logical push counters rewind, so the
    // same transient fires again on the retry of the *same* schedule.
    EXPECT_FALSE(player.play().clean());
    injector.rewind();
    EXPECT_FALSE(player.play().clean());
    EXPECT_EQ(injector.dropped(), 2u);
}

} // namespace
} // namespace hcube::ft
