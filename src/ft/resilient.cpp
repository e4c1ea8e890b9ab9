#include "ft/resilient.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "sim/cycle.hpp"
#include "trees/fault.hpp"
#include "trees/sbt.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

namespace hcube::ft {

namespace {

using sim::Schedule;

/// The fault-free ground truth: a barrier-Player run of the original
/// schedule plus the cycle model's delivery matrix. Heap members keep the
/// Plan's address stable under the Player's reference.
struct Oracle {
    std::unique_ptr<rt::Plan> plan;
    std::unique_ptr<rt::Player> player;
    std::vector<std::pair<node_t, packet_t>> contract;
    double seconds = 0;
};

Oracle build_oracle(const Schedule& schedule,
                    std::vector<std::pair<node_t, packet_t>> contract,
                    const ResilientParams& params,
                    std::span<const node_t> members = {}) {
    // The cycle executor proves the schedule feasible before it ever moves
    // a real block.
    (void)sim::execute_schedule(schedule,
                                sim::PortModel::one_port_full_duplex);

    Oracle oracle;
    oracle.plan = std::make_unique<rt::Plan>(
        compile_plan(schedule, rt::DataMode::move, params.block_elems, 1,
                     8, rt::PlanLayout::automatic, members));
    oracle.player = std::make_unique<rt::Player>(*oracle.plan);
    const rt::PlayStats stats = oracle.player->play();
    HCUBE_ENSURE_MSG(stats.clean() &&
                         stats.blocks_delivered == schedule.sends.size(),
                     "fault-free oracle run was not clean");

    // The op's semantic contract must be a subset of what the fault-free
    // run actually holds — otherwise the comparison could never pass.
    for (const auto& [node, packet] : contract) {
        HCUBE_ENSURE_MSG(!oracle.player->block(node, packet).empty(),
                         "contract pair missing from the oracle run");
    }
    oracle.contract = std::move(contract);
    oracle.seconds = stats.seconds;
    return oracle;
}

/// Member broadcast contract: every *live* member ends up holding every
/// packet — the contract contracts with the view.
std::vector<std::pair<node_t, packet_t>>
member_broadcast_contract(const mbr::View& view, packet_t packets) {
    std::vector<std::pair<node_t, packet_t>> contract;
    contract.reserve(static_cast<std::size_t>(view.count()) *
                     static_cast<std::size_t>(packets));
    for (const node_t v : view.members()) {
        for (packet_t p = 0; p < packets; ++p) {
            contract.emplace_back(v, p);
        }
    }
    return contract;
}

/// Broadcast contract: every node ends up holding every packet.
std::vector<std::pair<node_t, packet_t>>
broadcast_contract(dim_t n, packet_t packets) {
    std::vector<std::pair<node_t, packet_t>> contract;
    contract.reserve((std::size_t{1} << n) *
                     static_cast<std::size_t>(packets));
    for (node_t i = 0; i < (node_t{1} << n); ++i) {
        for (packet_t p = 0; p < packets; ++p) {
            contract.emplace_back(i, p);
        }
    }
    return contract;
}

/// Scatter contract: each packet's terminal destination (the target of its
/// last scheduled hop — a scatter routes every packet down one path) plus
/// the source's seeded copy. Relay transits are route artifacts and are
/// deliberately excluded: any replacement tree delivers the same contract.
std::vector<std::pair<node_t, packet_t>>
scatter_contract(const Schedule& schedule) {
    std::vector<std::uint32_t> last_cycle(schedule.packet_count, 0);
    std::vector<node_t> dest(schedule.packet_count);
    for (packet_t p = 0; p < schedule.packet_count; ++p) {
        dest[p] = schedule.initial_holder[p];
    }
    for (const sim::ScheduledSend& send : schedule.sends) {
        if (send.cycle >= last_cycle[send.packet]) {
            last_cycle[send.packet] = send.cycle + 1;
            dest[send.packet] = send.to;
        }
    }
    std::vector<std::pair<node_t, packet_t>> contract;
    contract.reserve(2 * schedule.packet_count);
    for (packet_t p = 0; p < schedule.packet_count; ++p) {
        contract.emplace_back(schedule.initial_holder[p], p);
        if (dest[p] != schedule.initial_holder[p]) {
            contract.emplace_back(dest[p], p);
        }
    }
    return contract;
}

/// Byte-for-byte comparison of every contract pair against the oracle's
/// final memory (the recovered plan may hold extra relay copies; only the
/// contract is demanded).
template <typename PlayerT>
[[nodiscard]] bool matches_oracle(const Oracle& oracle,
                                  const PlayerT& player) {
    for (const auto& [node, packet] : oracle.contract) {
        const std::span<const double> want =
            oracle.player->block(node, packet);
        const std::span<const double> got = player.block(node, packet);
        if (want.empty() || got.size() != want.size() ||
            std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/// One attempt: the serial walk plays `plan` with detection armed and
/// `injector` on its rings. A faulted run appends its FaultReport (and the
/// time from `start` to the fault surfacing) and returns false; a clean run
/// records whether it reproduced the oracle and returns true.
bool run_attempt(const rt::Plan& plan, std::size_t sends,
                 FaultInjector& injector, rt::TraceRecorder* trace,
                 const Oracle& oracle,
                 std::chrono::steady_clock::time_point start,
                 RecoveryResult& out) {
    rt::AsyncPlayer player(plan);
    player.set_detection(true);
    player.set_fault_hook(&injector);
    player.set_trace(trace);
    const rt::PlayStats stats = player.play();
    ++out.attempts;
    if (!stats.clean() || stats.blocks_delivered != sends) {
        out.reports.push_back(player.fault_report());
        // Detection latency: attempt start to the failed run's return —
        // how long the fault took to surface.
        static obs::Histogram& m_detect =
            obs::registry().histogram("ft.detect_ns");
        m_detect.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
        return false;
    }
    out.delivered = matches_oracle(oracle, player);
    out.stats = stats;
    out.final_seconds = stats.seconds;
    return true;
}

} // namespace

/// Fault-free ground truths keyed by operation signature; a sweep of fault
/// positions over one collective pays for its oracle once.
struct ResilientComm::OracleStore {
    std::map<std::string, Oracle> by_key;
};

ResilientComm::ResilientComm(dim_t n, ResilientParams params)
    : n_(n), params_(params),
      oracles_(std::make_unique<OracleStore>()), view_(n) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
    HCUBE_ENSURE(params_.block_elems >= 1);
    HCUBE_ENSURE(params_.max_attempts >= 1);
}

ResilientComm::~ResilientComm() = default;

RecoveryResult ResilientComm::run_resilient(const std::string& oracle_key,
                                            const Schedule& initial,
                                            Contract contract,
                                            const FaultPlan& faults,
                                            const Replanner& replan) {
    using clock = std::chrono::steady_clock;
    RecoveryResult out;

    auto cached = oracles_->by_key.find(oracle_key);
    if (cached == oracles_->by_key.end()) {
        cached = oracles_->by_key
                     .emplace(oracle_key,
                              build_oracle(initial, std::move(contract),
                                           params_))
                     .first;
    }
    const Oracle& oracle = cached->second;
    out.oracle_seconds = oracle.seconds;

    FaultInjector injector(faults);
    Schedule schedule = initial;

    for (std::uint32_t attempt = 0; attempt < params_.max_attempts;
         ++attempt) {
        const clock::time_point attempt_start = clock::now();
        // Ring depth 1 is exact for the serial walk (rt/plan.hpp).
        const rt::Plan plan =
            compile_plan(schedule, rt::DataMode::move, params_.block_elems,
                         1, /*async_depth=*/1);
        injector.arm(plan);
        const bool finished =
            run_attempt(plan, schedule.sends.size(), injector, trace_,
                        oracle, attempt_start, out);
        if (finished) {
            out.final_schedule = std::move(schedule);
            return out;
        }

        // Heal: declare the reported link dead and replan around the whole
        // dead set. A dirty run with no claimed report (cannot happen with
        // detection armed, but cheap to guard) aborts recovery.
        const FaultReport& report = out.reports.back();
        HCUBE_ENSURE_MSG(report.faulted(),
                         "attempt failed without a fault report");
        out.dead_links.push_back({report.from, report.to});
        out.recovered = true;
        schedule = replan(out.dead_links, out);
        out.recovery_seconds +=
            std::chrono::duration<double>(clock::now() - attempt_start)
                .count();
    }
    // Attempt budget exhausted without a clean run.
    out.final_schedule = std::move(schedule);
    return out;
}

RecoveryResult ResilientComm::broadcast_sbt(node_t root, packet_t packets,
                                            const FaultPlan& faults) {
    const Schedule initial = routing::make_tree_broadcast(
        trees::build_sbt(n_, root), routing::BroadcastDiscipline::paced,
        packets, sim::PortModel::one_port_full_duplex);
    const Replanner replan = [this, root, packets](
                                 std::span<const DirectedLink> dead,
                                 RecoveryResult&) {
        std::vector<trees::Link> failed;
        failed.reserve(dead.size());
        for (const DirectedLink& link : dead) {
            failed.push_back(trees::make_link(link.from, link.to));
        }
        return routing::make_tree_broadcast(
            trees::build_broadcast_tree_avoiding(n_, root, failed,
                                                 params_.replan_seed),
            routing::BroadcastDiscipline::paced, packets,
            sim::PortModel::one_port_full_duplex);
    };
    return run_resilient("bcast_sbt/" + std::to_string(root) + "/" +
                             std::to_string(packets),
                         initial, broadcast_contract(n_, packets), faults,
                         replan);
}

RecoveryResult ResilientComm::broadcast_msbt(node_t root, packet_t packets,
                                             const FaultPlan& faults) {
    HCUBE_ENSURE_MSG(packets % static_cast<packet_t>(n_) == 0,
                     "MSBT broadcast needs packets divisible by n");
    const packet_t pps = packets / static_cast<packet_t>(n_);
    const Schedule initial = routing::make_msbt_broadcast(
        n_, root, packets, sim::PortModel::one_port_full_duplex);
    const Replanner replan = [this, root,
                              pps](std::span<const DirectedLink> dead,
                                   RecoveryResult& out) {
        SurvivorMsbt survivor =
            make_msbt_survivor_broadcast(n_, root, pps, dead);
        out.dropped_trees = std::move(survivor.dropped_trees);
        return std::move(survivor.schedule);
    };
    return run_resilient("bcast_msbt/" + std::to_string(root) + "/" +
                             std::to_string(packets),
                         initial, broadcast_contract(n_, packets), faults,
                         replan);
}

RecoveryResult ResilientComm::run_member_resilient(
    const std::string& op_key, node_t root, const FaultPlan& faults,
    const MemberScheduler& make, const MemberContract& contract_of) {
    using clock = std::chrono::steady_clock;
    RecoveryResult out;
    FaultInjector injector(faults);

    for (std::uint32_t attempt = 0; attempt < params_.max_attempts;
         ++attempt) {
        const clock::time_point attempt_start = clock::now();
        HCUBE_ENSURE_MSG(view_.contains(root),
                         "collective root is not a live member");

        // The schedule, oracle and contract are all functions of the
        // *current* member set: a death between attempts shrinks all
        // three. The oracle cache keys on the view fingerprint, so a
        // sweep of fault positions over one survivor set still pays for
        // its oracle once.
        const Schedule schedule = make(view_);
        const std::vector<node_t> members = view_.members();
        const std::string key =
            op_key + "/" + std::to_string(view_.fingerprint());
        auto cached = oracles_->by_key.find(key);
        if (cached == oracles_->by_key.end()) {
            cached = oracles_->by_key
                         .emplace(key, build_oracle(schedule,
                                                    contract_of(schedule,
                                                                view_),
                                                    params_, members))
                         .first;
            out.oracle_seconds += cached->second.seconds;
        }
        const Oracle& oracle = cached->second;

        const rt::Plan plan =
            compile_plan(schedule, rt::DataMode::move, params_.block_elems,
                         1, /*async_depth=*/1, rt::PlanLayout::automatic,
                         members);
        injector.arm(plan);
        const bool finished =
            run_attempt(plan, schedule.sends.size(), injector, trace_,
                        oracle, attempt_start, out);
        if (finished) {
            out.final_schedule = schedule;
            out.view_epoch = view_.epoch();
            return out;
        }

        // Heal: the fault is a node death, not a wire break. The non-root
        // endpoint of the reported link leaves the view; the next attempt
        // rebuilds tree, contract and oracle over the survivors. The
        // root's own death is unrecoverable (no one else holds the data).
        const FaultReport& report = out.reports.back();
        HCUBE_ENSURE_MSG(report.faulted(),
                         "attempt failed without a fault report");
        const node_t victim = report.to == root ? report.from : report.to;
        HCUBE_ENSURE_MSG(victim != root,
                         "the collective root died — unrecoverable");
        out.dead_links.push_back({report.from, report.to});
        out.dead_nodes.push_back(victim);
        view_.leave(victim);
        out.recovered = true;
        out.recovery_seconds +=
            std::chrono::duration<double>(clock::now() - attempt_start)
                .count();
    }
    // Attempt budget exhausted without a clean run.
    out.final_schedule = make(view_);
    out.view_epoch = view_.epoch();
    return out;
}

RecoveryResult ResilientComm::broadcast_members(node_t root,
                                                packet_t packets,
                                                const FaultPlan& faults) {
    return run_member_resilient(
        "bcast_members/" + std::to_string(root) + "/" +
            std::to_string(packets),
        root, faults,
        [root, packets](const mbr::View& view) {
            return routing::make_member_broadcast(
                view, root, routing::BroadcastDiscipline::paced, packets,
                sim::PortModel::one_port_full_duplex);
        },
        [packets](const Schedule&, const mbr::View& view) {
            return member_broadcast_contract(view, packets);
        });
}

RecoveryResult ResilientComm::scatter_members(node_t root,
                                              packet_t packets_per_dest,
                                              const FaultPlan& faults) {
    return run_member_resilient(
        "scatter_members/" + std::to_string(root) + "/" +
            std::to_string(packets_per_dest),
        root, faults,
        [root, packets_per_dest](const mbr::View& view) {
            return routing::make_member_scatter(view, root,
                                                packets_per_dest);
        },
        [](const Schedule& schedule, const mbr::View&) {
            // The generic terminal-destination walk already speaks member
            // scatter: packet ids are dense over live destinations.
            return scatter_contract(schedule);
        });
}

RecoveryResult ResilientComm::scatter_sbt(node_t root,
                                          packet_t packets_per_dest,
                                          const FaultPlan& faults) {
    const Schedule initial = routing::make_tree_scatter(
        trees::build_sbt(n_, root), routing::ScatterPolicy::descending,
        packets_per_dest, sim::PortModel::one_port_full_duplex);
    const Replanner replan = [this, root, packets_per_dest](
                                 std::span<const DirectedLink> dead,
                                 RecoveryResult&) {
        std::vector<trees::Link> failed;
        failed.reserve(dead.size());
        for (const DirectedLink& link : dead) {
            failed.push_back(trees::make_link(link.from, link.to));
        }
        // scatter_one_port's packet ids depend only on dest ^ root, so any
        // replacement spanning tree delivers the identical contract.
        return routing::make_tree_scatter(
            trees::build_broadcast_tree_avoiding(n_, root, failed,
                                                 params_.replan_seed),
            routing::ScatterPolicy::descending, packets_per_dest,
            sim::PortModel::one_port_full_duplex);
    };
    return run_resilient("scatter_sbt/" + std::to_string(root) + "/" +
                             std::to_string(packets_per_dest),
                         initial, scatter_contract(initial), faults,
                         replan);
}

} // namespace hcube::ft
