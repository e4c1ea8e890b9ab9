#include "rt/communicator.hpp"

#include "common/check.hpp"
#include "rt/async_player.hpp"
#include "rt/player.hpp"
#include "rt/pool.hpp"
#include "rt/threads.hpp"
#include "rt/verify.hpp"
#include "sim/cycle.hpp"

#include <optional>

namespace hcube::rt {

namespace {

using sim::packet_t;
using sim::Schedule;

/// The per-run numbers every operation reports identically, including the
/// fault counters the ft layer (and bench JSON) watches.
void copy_play_stats(Result& result, const PlayStats& stats) {
    result.rt_cycles = stats.cycles;
    result.blocks_delivered = stats.blocks_delivered;
    result.payload_bytes = stats.payload_bytes;
    result.bytes_copied = stats.bytes_copied;
    result.seconds = stats.seconds;
    result.steals = stats.steals;
    result.exec_mode = stats.mode;
    result.transport = stats.transport;
    result.checksum_failures = stats.checksum_failures;
    result.channel_faults = stats.channel_faults;
    result.timeouts = stats.timeouts;
}

} // namespace

Communicator::Communicator(hc::dim_t n, Params params)
    : n_(n), params_(params),
      threads_(pick_worker_threads(n, params.threads)),
      pool_(threads_ > 1 ? std::make_unique<WorkerPool>(threads_)
                         : nullptr) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
    HCUBE_ENSURE(params_.block_elems >= 1);
}

Communicator::~Communicator() = default;

bool Communicator::oracle_due(const Schedule& schedule) {
    switch (params_.verify) {
    case Verify::always: return true;
    case Verify::never: return false;
    case Verify::first:
        return oracle_seen_.insert(schedule_fingerprint(schedule)).second;
    }
    return true;
}

Result Communicator::run_move(const Schedule& schedule) {
    // The cycle executor proves the schedule feasible under the port model
    // and provides the makespan + delivery matrix the runtime must match.
    const sim::CycleStats sim_stats =
        sim::execute_schedule(schedule, params_.model);

    const Plan plan = compile_plan(schedule, DataMode::move,
                                   params_.block_elems, threads_);

    Result result;
    result.engine = params_.engine;
    result.threads = threads_;
    result.pool_reused = pool_ != nullptr || threads_ == 1;
    result.sim_makespan = sim_stats.makespan;

    // The barrier player runs when it is the measured engine or when the
    // Verify policy asks for the oracle cross-check of the async engine.
    const bool with_oracle =
        params_.engine == Engine::barrier || oracle_due(schedule);
    result.oracle_checked = with_oracle;

    std::optional<Player> ref;
    PlayStats ref_stats;
    bool ok = true;
    if (with_oracle) {
        ref.emplace(plan, params_.channel_capacity);
        ref_stats = ref->play(pool_.get());
        // The oracle itself must be clean: every in-flight checksum passed,
        // every channel behaved, exactly one delivery per scheduled send,
        // and its barriered cycle count matches the cycle model.
        ok = ref_stats.clean() &&
             ref_stats.blocks_delivered == schedule.sends.size() &&
             ref_stats.cycles == sim_stats.makespan;
    }

    if (params_.engine == Engine::barrier) {
        ok = ok && holdings_match(plan, *ref, sim_stats);
        copy_play_stats(result, ref_stats);
    } else {
        AsyncPlayer dut(plan);
        const PlayStats stats = dut.play(pool_.get());
        ok = ok && stats.clean() &&
             stats.blocks_delivered == schedule.sends.size() &&
             holdings_match(plan, dut, sim_stats);
        if (with_oracle) {
            ok = ok && identical_memory(plan, *ref, dut);
            result.ref_seconds = ref_stats.seconds;
        }
        copy_play_stats(result, stats);
    }
    result.verified = ok;
    // A failed oracle pass must not inoculate the fingerprint.
    if (!ok && params_.verify == Verify::first && with_oracle) {
        oracle_seen_.erase(schedule_fingerprint(schedule));
    }
    return result;
}

Result Communicator::broadcast(const trees::SpanningTree& tree,
                               routing::BroadcastDiscipline discipline,
                               packet_t packets) {
    HCUBE_ENSURE(tree.n == n_);
    return run_move(routing::make_tree_broadcast(tree, discipline, packets,
                                                 params_.model));
}

Result Communicator::broadcast_msbt(hc::node_t root, packet_t packets) {
    return run_move(
        routing::make_msbt_broadcast(n_, root, packets, params_.model));
}

Result Communicator::scatter(const trees::SpanningTree& tree,
                             routing::ScatterPolicy policy,
                             packet_t packets_per_dest) {
    HCUBE_ENSURE(tree.n == n_);
    return run_move(routing::make_tree_scatter(tree, policy,
                                               packets_per_dest,
                                               params_.model));
}

Result Communicator::gather(const trees::SpanningTree& tree,
                            routing::ScatterPolicy policy,
                            packet_t packets_per_dest) {
    HCUBE_ENSURE(tree.n == n_);
    return run_move(routing::make_tree_gather(tree, policy, packets_per_dest,
                                              params_.model));
}

Result Communicator::allgather() {
    return run_move(routing::make_allgather_schedule(n_));
}

Result Communicator::alltoall(packet_t packets_per_pair) {
    return run_move(routing::make_alltoall_schedule(n_, packets_per_pair));
}

Result Communicator::reduce(const trees::SpanningTree& tree,
                            packet_t packets) {
    HCUBE_ENSURE(tree.n == n_);
    // The forward broadcast provides the feasibility proof and the
    // makespan; time reversal preserves both (every constraint the
    // executor checks is symmetric under reversal).
    const Schedule forward = routing::make_tree_broadcast(
        tree, routing::BroadcastDiscipline::port_oriented, packets,
        params_.model);
    const sim::CycleStats sim_stats =
        sim::execute_schedule(forward, params_.model);
    const Schedule reduction =
        routing::reverse_broadcast_for_reduce(forward, tree.root);

    const Plan plan = compile_plan(reduction, DataMode::combine,
                                   params_.block_elems, threads_);

    // The root's block for every packet must equal the exact elementwise
    // integer sum of all N contributions.
    const auto sums_match = [&](const auto& player) {
        const node_t count = node_t{1} << n_;
        for (packet_t p = 0; p < packets; ++p) {
            const std::span<const double> block = player.block(tree.root, p);
            if (block.size() != params_.block_elems) {
                return false;
            }
            for (std::size_t e = 0; e < params_.block_elems; ++e) {
                double expected = 0.0;
                for (node_t i = 0; i < count; ++i) {
                    expected += contribution_element(i, p, e);
                }
                if (block[e] != expected) {
                    return false;
                }
            }
        }
        return true;
    };

    Result result;
    result.engine = params_.engine;
    result.threads = threads_;
    result.pool_reused = pool_ != nullptr || threads_ == 1;
    result.sim_makespan = sim_stats.makespan;

    const bool with_oracle =
        params_.engine == Engine::barrier || oracle_due(reduction);
    result.oracle_checked = with_oracle;

    std::optional<Player> ref;
    PlayStats ref_stats;
    bool ok = true;
    if (with_oracle) {
        ref.emplace(plan, params_.channel_capacity);
        ref_stats = ref->play(pool_.get());
        ok = ref_stats.clean() &&
             ref_stats.blocks_delivered == reduction.sends.size() &&
             ref_stats.cycles == sim_stats.makespan;
    }

    if (params_.engine == Engine::barrier) {
        ok = ok && sums_match(*ref);
        copy_play_stats(result, ref_stats);
    } else {
        AsyncPlayer dut(plan);
        const PlayStats stats = dut.play(pool_.get());
        // The combining accumulation order is fixed by the plan's
        // slot-ordering edges, so even the floating-point intermediate
        // states must agree bit for bit with the barrier oracle; the exact
        // integer sums check stays meaningful with the oracle skipped.
        ok = ok && stats.clean() &&
             stats.blocks_delivered == reduction.sends.size() &&
             sums_match(dut);
        if (with_oracle) {
            ok = ok && identical_memory(plan, *ref, dut);
            result.ref_seconds = ref_stats.seconds;
        }
        copy_play_stats(result, stats);
    }
    result.verified = ok;
    if (!ok && params_.verify == Verify::first && with_oracle) {
        oracle_seen_.erase(schedule_fingerprint(reduction));
    }
    return result;
}

} // namespace hcube::rt
