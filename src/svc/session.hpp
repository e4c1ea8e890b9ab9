// svc::Session — the persistent execution context of the collective
// service: one compiled-plan cache and one set of calibrated machine
// constants, shared across every operation submitted for the session's
// lifetime.
//
// Where rt::Communicator recompiles the schedule and reallocates player
// memory on every call, the Session caches the *compiled plan and its
// players*: a cache hit replays the resident AsyncPlayer on the calling
// thread, touching no allocator and no schedule generator (the barrier
// Player is only the first pass's oracle). Every plan compiles for one worker, so every play is the
// serial lowered-order walk: a zero-copy hop is a pointer assignment, and
// a single collective has no per-hop work worth splitting across threads.
// Concurrency lives at the request level instead — distinct signatures
// execute in parallel on their callers' threads. Verification in
// the cached steady state stays byte-exact without re-running the barrier
// oracle: combine-mode entries byte-compare against the oracle image
// snapshotted on the entry's first (fully oracle-checked) execution, and
// move-mode entries re-derive the expected final state from the plan's
// immutable block arena, storing only a fingerprint of the slot→packet
// table — the image would be a second full copy of arena bytes
// (docs/SERVICE.md § Verification in steady state).
#pragma once

#include "common/lru_cache.hpp"
#include "mbr/view.hpp"
#include "model/broadcast_model.hpp"
#include "rt/communicator.hpp" // Verify
#include "rt/plan.hpp"
#include "svc/rejection.hpp"
#include "svc/selector.hpp"
#include "svc/signature.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>

namespace hcube::svc {

struct SessionParams {
    /// Compiled plans (and their players) kept resident; 0 = unbounded.
    /// Entry-count mode, used only while plan_cache_bytes is 0.
    std::size_t plan_cache_capacity = 32;
    /// Byte budget for the plan cache. When nonzero the cache charges each
    /// entry its exact resident bytes (plan + players + oracle image; see
    /// Plan::resident_bytes) and evicts least-recently-used entries until
    /// the total fits — thousands of small-cube signatures coexist with a
    /// few large ones under one bound. 0 (the default) preserves the
    /// entry-count behavior of plan_cache_capacity.
    std::uint64_t plan_cache_bytes = 0;
    /// Oracle policy. `first` (the service default) fully oracle-checks
    /// each signature's first execution and byte-compares repeats against
    /// the snapshotted oracle image; `always` re-runs the oracle every
    /// time; `never` skips it entirely (checksums + holdings only).
    rt::Verify verify = rt::Verify::first;
    /// Port model schedules are generated for and validated under.
    sim::PortModel model = sim::PortModel::one_port_full_duplex;
    /// Machine constants for the AlgorithmSelector. Unset → calibrated at
    /// construction from two serial reduce micro-probes
    /// (model::fit_params), with model::ipsc_params() as the fallback when
    /// the fit degenerates.
    std::optional<model::CommParams> comm;
};

/// Per-execution report (the service's analogue of rt::Result).
struct ExecStats {
    bool verified = false;      ///< all checks for this run passed
    bool oracle_checked = false;///< barrier oracle ran on this execution
    bool cache_hit = false;     ///< plan + players came from the cache
    std::uint32_t rt_cycles = 0;
    std::uint32_t sim_makespan = 0;
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0;
    /// Payload bytes the serial walk memcpy'd (0 on the zero-copy
    /// delivery path; nonzero under copy-through — combine plans).
    std::uint64_t bytes_copied = 0;
    /// How the play executed: the serial walk on every in-process play.
    rt::ExecMode exec_mode = rt::ExecMode::barrier;
    /// Medium the blocks moved over (always ring for an in-process
    /// session; netd reports its serving endpoint's transport instead).
    ft::TransportClass transport = ft::TransportClass::ring;
    /// Exact bytes this signature's cache entry keeps resident after the
    /// run (compiled plan + players + oracle image, plus the schedules and
    /// delivery matrix full checks read until Verify::first's steady state
    /// drops them) — the cost the byte-budgeted cache charges it.
    std::uint64_t plan_resident_bytes = 0;
    double seconds = 0; ///< wall clock of the serial walk's play()
    /// Member-set epoch the plan was keyed on (the signature sub-cube's
    /// epoch at execution time).
    std::uint64_t view_epoch = 0;
    /// Live members the collective spanned (2^sig.n on a full sub-cube).
    node_t member_count = 0;
};

class Session {
  public:
    explicit Session(dim_t n, SessionParams params = {});
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] dim_t dimension() const noexcept { return n_; }
    /// Worker threads a play spans: always 1 — every collective runs the
    /// serial walk on the thread that called execute().
    [[nodiscard]] static constexpr std::uint32_t threads() noexcept {
        return 1;
    }

    /// Validates `sig` against the current membership view (see
    /// preflight), fetches or compiles its plan entry, executes it on the
    /// calling thread, and verifies per the session's Verify policy.
    /// Accepts any sub-cube dimension 1 <= sig.n <= n, so one session can
    /// serve a mixed-dimension signature population; on an incomplete
    /// sub-cube the schedule spans exactly the live members. Throws
    /// rejected_error (with the structured Rejection) when preflight
    /// refuses the signature. Thread-safe; concurrent executions of the
    /// same signature serialize on the entry, distinct signatures run in
    /// parallel; membership transitions wait for in-flight executions to
    /// drain.
    [[nodiscard]] ExecStats execute(const Signature& sig);

    /// Why `sig` would be refused against the current view, or nullopt if
    /// it is admissible: dimension and root in range, root a live member
    /// of the signature's sub-cube (with the XOR-nearest live member
    /// suggested otherwise), and — on an incomplete sub-cube — a family
    /// and op the member tree can route.
    [[nodiscard]] std::optional<Rejection>
    preflight(const Signature& sig) const;

    // ---- membership ---------------------------------------------------

    /// Snapshot of the session's membership view (full cube at epoch 0
    /// until the first transition).
    [[nodiscard]] mbr::View view() const;
    [[nodiscard]] std::uint64_t view_epoch() const;

    /// Membership transitions. Each applies to the view atomically, then
    /// evicts exactly the cached plans whose sub-cube epoch went stale —
    /// a join at address 9 leaves every n <= 3 plan resident. Returns the
    /// number of entries evicted. Transitions wait for in-flight
    /// executions to drain; strictness (joining a live address, leaving a
    /// dead or last one) follows mbr::View and throws check_error with
    /// the view and cache unchanged.
    std::size_t join(node_t v);
    std::size_t leave(node_t v);
    std::size_t apply(const mbr::Delta& delta);

    /// Total cache entries evicted by membership transitions (subset of
    /// cache_stats().evictions).
    [[nodiscard]] std::uint64_t epoch_evictions() const noexcept;

    /// Cost-model selection with the session's calibrated constants.
    [[nodiscard]] const AlgorithmSelector& selector() const noexcept {
        return selector_;
    }

    /// Convenience: selector() applied to a message of `message_elems`
    /// elements, returning a ready-to-execute signature.
    [[nodiscard]] Signature plan_signature(Op op, node_t root,
                                           std::uint64_t message_elems) const;

    [[nodiscard]] hcube::CacheStats cache_stats() const noexcept;
    [[nodiscard]] std::size_t cached_plans() const;
    /// Total cost currently charged to the plan cache: exact resident
    /// bytes under a plan_cache_bytes budget, resident entry count in
    /// entry-count mode.
    [[nodiscard]] std::uint64_t cache_resident_bytes() const;

    /// The compiled plan cached for `sig` over the current view, or null
    /// when none is resident. No recency update and no counters; the
    /// pointer stays valid while the entry stays resident. For
    /// introspection: tests reach the slot tables and arena through it.
    [[nodiscard]] const rt::Plan* cached_plan(const Signature& sig) const;

  private:
    struct PlanEntry;

    /// `sub` is the signature's sub-cube view (held stable by the shared
    /// view lock the caller holds across the lookup).
    [[nodiscard]] std::shared_ptr<PlanEntry>
    entry_for(const Signature& sig, const mbr::View& sub, bool& cache_hit);
    [[nodiscard]] model::CommParams calibrate() const;
    /// Evicts every cached plan whose sub-cube epoch no longer matches
    /// the view. Caller holds the exclusive view lock.
    std::size_t evict_stale_epochs();

    dim_t n_;
    SessionParams params_;
    bool byte_budget_; ///< plan_cache_bytes != 0: cost-aware eviction
    AlgorithmSelector selector_;
    LruCache<Signature, std::shared_ptr<PlanEntry>> cache_;
    /// Guards view_: shared across an execution (plans compile against a
    /// stable member set), exclusive for transitions — so a transition
    /// can never invalidate a plan mid-flight. Lock order: view_mutex_
    /// before any cache_ internal lock.
    mutable std::shared_mutex view_mutex_;
    mbr::View view_;
    std::atomic<std::uint64_t> epoch_evictions_{0};
    /// High-water mark of cache evictions already published to the obs
    /// registry — each Session forwards exactly its own eviction total once
    /// even when concurrent executions race the sync.
    std::atomic<std::uint64_t> evictions_published_{0};
};

} // namespace hcube::svc
