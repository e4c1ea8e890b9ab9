// rt::Communicator — the collective API of the threaded runtime.
//
// Where routing::CollectiveComm runs the paper's algorithms on the *event
// simulator* (simulated seconds), this communicator runs the cycle-exact
// schedules as *real data movement*: directed links as sequence-stamped
// ring-buffer channels and a checksum check on every delivered block.
// Every operation compiles a one-worker plan, as svc::Session does, and
// the AsyncPlayer's serial lowered-order walk executes it. The
// two-barrier-per-cycle Player runs it too, as the cycle-exact reference
// oracle (per the Verify policy), and verification then demands a
// byte-identical final memory state across the two. Every operation also
// executes the same schedule through sim::execute_schedule, so the result
// carries both the measured wall clock and the cycle-model cross-check:
// for uniform packets the oracle's cycle count equals the CycleExecutor
// makespan exactly (the serial walk reports the same logical depth
// without ever synchronizing on it).
//
// Operations map onto the paper's schedule families via the
// routing/schedule_export.hpp hooks:
//   broadcast  — any spanning tree (port-oriented or paced) or the MSBT;
//   scatter    — SBT descending / BST cyclic / all-port per-subtree;
//   gather     — the time-reversed scatter;
//   reduce     — the time-reversed broadcast, combining elementwise;
//   allgather  — recursive doubling (packet j = node j's block);
//   alltoall   — dimension-order complete exchange.
#pragma once

#include "routing/schedule_export.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp" // PlayStats, ExecMode
#include "sim/port_model.hpp"
#include "trees/spanning_tree.hpp"

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_set>

namespace hcube::rt {

class AsyncPlayer;

/// When the barrier-oracle cross-check of the serial walk runs (see
/// docs/RUNTIME.md § Verification policy).
enum class Verify {
    always, ///< oracle re-executes every operation (the safest default)
    first,  ///< oracle runs once per distinct schedule fingerprint; later
            ///< repeats rely on per-block checksums + the holdings check
    never,  ///< oracle never runs; checksums + holdings only
};

[[nodiscard]] constexpr std::string_view to_string(Verify v) noexcept {
    switch (v) {
    case Verify::always: return "always";
    case Verify::first: return "first";
    case Verify::never: return "never";
    }
    return "?";
}

struct Params {
    /// Elements (doubles) per packet — the internal packet size B_int.
    std::size_t block_elems = 256;
    /// Port model the schedules are generated for and validated under.
    sim::PortModel model = sim::PortModel::one_port_full_duplex;
    /// Barrier-oracle policy. Tests default to `always`; the service
    /// layer's cached steady state uses `first`.
    Verify verify = Verify::always;
};

struct Result {
    std::uint32_t rt_cycles = 0;    ///< logical cycles of the schedule
    std::uint32_t sim_makespan = 0; ///< CycleExecutor makespan (cross-check)
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0; ///< bytes drained from link channels
    std::uint64_t bytes_copied = 0;  ///< payload bytes memcpy'd by the
                                     ///< serial walk (0 = pure zero-copy)
    double seconds = 0;              ///< wall clock of the serial walk
    double ref_seconds = 0; ///< barrier-oracle wall clock (0 if skipped)
    /// Fault counters of the serial walk's run (all zero on a healthy
    /// machine; nonzero under ft fault injection or real failures).
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;
    std::uint64_t timeouts = 0;
    bool verified = false; ///< per-block checksums + final-state checks
    /// The barrier oracle executed and cross-checked this operation (false
    /// when Verify::first already covered the fingerprint or Verify::never
    /// suppressed it).
    bool oracle_checked = false;
    /// How the run executed: the AsyncPlayer's serial walk in process
    /// (barrier phases only when a net-backend result is folded into the
    /// same schema).
    ExecMode exec_mode = ExecMode::serial;
    /// Medium the blocks moved over ("ring" for the in-process bank;
    /// "uds"/"tcp" when a net-backend result is folded into the same
    /// schema).
    ft::TransportClass transport = ft::TransportClass::ring;
};

class Communicator {
public:
    explicit Communicator(hc::dim_t n, Params params = {});

    [[nodiscard]] hc::dim_t dimension() const noexcept { return n_; }

    /// Broadcast `packets` blocks from tree.root down `tree`.
    Result broadcast(const trees::SpanningTree& tree,
                     routing::BroadcastDiscipline discipline,
                     sim::packet_t packets);

    /// MSBT broadcast of `packets` blocks (divisible by n) from `root`.
    Result broadcast_msbt(hc::node_t root, sim::packet_t packets);

    /// Scatter `packets_per_dest` blocks from tree.root to every node.
    Result scatter(const trees::SpanningTree& tree,
                   routing::ScatterPolicy policy,
                   sim::packet_t packets_per_dest);

    /// Gather every node's blocks at tree.root (time-reversed scatter).
    Result gather(const trees::SpanningTree& tree,
                  routing::ScatterPolicy policy,
                  sim::packet_t packets_per_dest);

    /// Elementwise-sum reduction of `packets` blocks per node into
    /// tree.root, down the time-reversed port-oriented broadcast of `tree`.
    /// Verified against the exact integer sums of every contribution.
    Result reduce(const trees::SpanningTree& tree, sim::packet_t packets);

    /// Allgather: node j's block (packet j) reaches every node.
    Result allgather();

    /// All-to-all personalized exchange, `packets_per_pair` blocks per
    /// (src, dest) pair.
    Result alltoall(sim::packet_t packets_per_pair);

private:
    /// Validates via the cycle executor, compiles, plays, verifies final
    /// holdings block by block.
    Result run_move(const sim::Schedule& schedule);

    /// Compiles `schedule`, plays it on the serial walk (and the barrier
    /// oracle when due) and verifies: clean stats, one delivery per send,
    /// `content_ok` on the walk's final memory, and the oracle's cycle
    /// count equal to `makespan` with a byte-identical final image.
    Result play_verified(
        const sim::Schedule& schedule, DataMode mode, std::uint32_t makespan,
        const std::function<bool(const Plan&, const AsyncPlayer&)>&
            content_ok);

    /// True when the barrier oracle must run for this schedule under the
    /// configured Verify policy (records the fingerprint under ::first).
    [[nodiscard]] bool oracle_due(const sim::Schedule& schedule);

    hc::dim_t n_;
    Params params_;
    /// Schedule fingerprints whose oracle cross-check already passed
    /// (Verify::first bookkeeping).
    std::unordered_set<std::uint64_t> oracle_seen_;
};

} // namespace hcube::rt
