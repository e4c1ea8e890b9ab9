#include "svc/session.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/verify.hpp"
#include "sim/cycle.hpp"

#include <cstring>
#include <limits>
#include <vector>

namespace hcube::svc {

namespace {

using sim::packet_t;

/// Slot-ordered copy of a player's final memory (every slot is exactly
/// plan.block_elems doubles) — the oracle image a cached entry's later runs
/// are byte-compared against.
template <class P>
std::vector<double> snapshot_memory(const rt::Plan& plan, const P& player) {
    std::vector<double> image;
    image.reserve(plan.total_slots * plan.block_elems);
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b = player.slot_block(s);
        image.insert(image.end(), b.begin(), b.end());
    }
    return image;
}

template <class P>
bool matches_image(const rt::Plan& plan, const P& player,
                   const std::vector<double>& image) {
    if (image.size() != plan.total_slots * plan.block_elems) {
        return false;
    }
    std::size_t off = 0;
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b = player.slot_block(s);
        if (b.size() != plan.block_elems ||
            std::memcmp(b.data(), image.data() + off,
                        plan.block_elems * sizeof(double)) != 0) {
            return false;
        }
        off += plan.block_elems;
    }
    return true;
}

/// Move-mode steady-state check: every slot's final block must be the
/// canonical arena block of the packet the slot table names for it. The
/// expected image is *derived* from the plan's immutable arena rather than
/// stored per entry — on the zero-copy path this is pointer identity (no
/// arena byte is read), and copy-through finals memcmp against it.
template <class P>
bool matches_arena(const rt::Plan& plan, const P& player) {
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        const std::span<const double> b = player.slot_block(s);
        if (b.size() != plan.block_elems) {
            return false;
        }
        const double* canon = plan.arena_block(plan.slot_packet[s]);
        if (b.data() != canon &&
            std::memcmp(b.data(), canon,
                        plan.block_elems * sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/// FNV-1a over the slot-ordered canonical block digests — the identity of
/// the derived move-mode oracle image. Stored on the first verified pass
/// and recomputed on every steady-state run, so a slot→packet table that
/// changed since that pass is caught even though no second image copy
/// exists. The digests come from canonical_checksum, not from arena bytes:
/// the arena's contents are certified once, by the first pass's per-block
/// checksums, and from then on protected by its immutability.
std::uint64_t arena_fingerprint(const rt::Plan& plan) {
    std::vector<std::uint64_t> digest(plan.packet_count);
    for (packet_t p = 0; p < plan.packet_count; ++p) {
        digest[p] = rt::canonical_checksum(p, plan.block_elems);
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        h ^= digest[plan.slot_packet[s]];
        h *= 0x100000001b3ull;
    }
    return h;
}

/// The root's block for every packet must equal the exact elementwise
/// integer sum of every contributing node (combine mode). A full-cube
/// reduction sums all 2^n contributions; a member reduction sums exactly
/// the live members' (`members` empty = full cube).
template <class P>
bool sums_match(const P& player, node_t root, packet_t packets, dim_t n,
                std::size_t block_elems, std::span<const node_t> members) {
    const node_t count = node_t{1} << n;
    for (packet_t p = 0; p < packets; ++p) {
        const std::span<const double> block = player.block(root, p);
        if (block.size() != block_elems) {
            return false;
        }
        for (std::size_t e = 0; e < block_elems; ++e) {
            double expected = 0.0;
            if (members.empty()) {
                for (node_t i = 0; i < count; ++i) {
                    expected += rt::contribution_element(i, p, e);
                }
            } else {
                for (const node_t i : members) {
                    expected += rt::contribution_element(i, p, e);
                }
            }
            if (block[e] != expected) {
                return false;
            }
        }
    }
    return true;
}

/// Preflight of `sig` against the session cube `n` and membership `view`
/// (nullopt = admissible). Pure — callers hold whatever lock keeps the
/// view stable.
std::optional<Rejection> preflight_against(const Signature& sig, dim_t n,
                                           const mbr::View& view) {
    if (sig.n < 1 || sig.n > n) {
        return Rejection{RejectReason::dimension_out_of_range,
                         "signature dimension " + std::to_string(sig.n) +
                             " outside the session's [1, " +
                             std::to_string(n) + "]",
                         std::nullopt};
    }
    if (sig.root >= (node_t{1} << sig.n)) {
        return Rejection{RejectReason::root_out_of_range,
                         "root " + std::to_string(sig.root) +
                             " outside the " + std::to_string(sig.n) +
                             "-cube",
                         std::nullopt};
    }
    const mbr::View sub = view.restricted(sig.n);
    if (!sub.contains(sig.root)) {
        Rejection r{RejectReason::root_not_live,
                    "root " + std::to_string(sig.root) +
                        " is not a live member",
                    std::nullopt};
        if (sub.count() > 0) {
            r.suggested_root = mbr::nearest_member(sub, sig.root);
            r.detail += " (nearest live member: " +
                        std::to_string(*r.suggested_root) + ")";
        }
        return r;
    }
    if (!sub.full()) {
        if (sig.family != Family::sbt) {
            return Rejection{
                RejectReason::family_unsupported,
                std::string(to_string(sig.family)) +
                    " assumes the full address space; incomplete cubes "
                    "route over the member tree (sbt)",
                std::nullopt};
        }
        if (sig.op == Op::allgather || sig.op == Op::alltoall) {
            return Rejection{
                RejectReason::op_unsupported,
                std::string(to_string(sig.op)) +
                    " pairs every cube address and has no "
                    "incomplete-cube construction",
                std::nullopt};
        }
    }
    return std::nullopt;
}

/// Publishes the delta between `current` (a monotonic source total, e.g.
/// LruCache::stats().evictions) and the high-water mark already forwarded
/// to `c`. Concurrent callers race on the mark, so the counter receives
/// each unit of the source total exactly once.
void sync_monotonic(obs::Counter& c,
                    std::atomic<std::uint64_t>& published,
                    std::uint64_t current) noexcept {
    std::uint64_t prev = published.load(std::memory_order_relaxed);
    for (;;) {
        if (prev >= current) {
            return;
        }
        if (published.compare_exchange_weak(prev, current,
                                            std::memory_order_relaxed)) {
            c.inc(current - prev);
            return;
        }
    }
}

/// Heap bytes of a schedule's send list and holder table.
std::uint64_t schedule_bytes(const sim::Schedule& s) noexcept {
    return std::uint64_t{s.sends.capacity()} * sizeof(sim::ScheduledSend) +
           std::uint64_t{s.initial_holder.capacity()} * sizeof(node_t);
}

} // namespace

/// One cached signature: the generated schedules, the compiled plan, the
/// resident players, and the oracle image its steady-state runs are
/// compared against. Heap-allocated and shared_ptr-held so an eviction
/// while another thread executes the entry only drops a reference.
struct Session::PlanEntry {
    // ---- full-check state: read only by full (first-principles) checks,
    // released once Verify::first reaches its steady state --------------
    GeneratedSchedule gen;
    /// Live members the schedule spans, ascending — populated only when
    /// the signature's sub-cube view was incomplete (empty = full cube,
    /// costing nothing against the byte budget), consumed by the
    /// member-aware combine verification and the plan's worker partition.
    std::vector<node_t> members;
    sim::CycleStats sim_stats; ///< of gen.feasibility (makespan + holdings)

    std::uint64_t send_count = 0; ///< gen.exec.sends.size()
    std::uint32_t makespan = 0;   ///< sim_stats.makespan
    std::unique_ptr<rt::Plan> plan;
    /// The barrier Player, only as the Verify oracle: dropped after the
    /// first verified pass when Verify::first no longer needs it, never
    /// built under Verify::never.
    std::unique_ptr<rt::Player> oracle;
    std::unique_ptr<rt::AsyncPlayer> async; ///< the executor
    /// Oracle image of the first verified run — combine mode only. Move
    /// mode stores no image (it would duplicate the plan's immutable
    /// arena); steady runs re-derive it and check oracle_fingerprint.
    std::vector<double> oracle_image;
    std::uint64_t oracle_fingerprint = 0; ///< move mode, arena-derived
    bool image_valid = false; ///< first verified pass has happened
    /// Bytes the byte-budgeted cache currently charges this entry; an
    /// execution that changes resident_bytes() re-prices it.
    std::uint64_t charged_bytes = 0;
    /// Serializes executions of this entry (the players hold mutable run
    /// state); distinct entries run in parallel.
    std::mutex exec_mutex;

    /// Exact bytes this entry keeps resident — the cost the byte-budgeted
    /// plan cache charges it. Itemized: the compiled plan (actions,
    /// buckets, slots, channels, its share of the arena), each resident
    /// player's run state (the async player's rings only once a play has
    /// needed them), the combine-mode oracle image, and the full-check
    /// state while it is held.
    [[nodiscard]] std::uint64_t resident_bytes() const {
        std::uint64_t bytes = plan->resident_bytes() + async->resident_bytes();
        if (oracle != nullptr) {
            bytes += oracle->resident_bytes();
        }
        bytes += std::uint64_t{oracle_image.capacity()} * sizeof(double);
        bytes += std::uint64_t{members.capacity()} * sizeof(node_t);
        bytes += schedule_bytes(gen.exec) + schedule_bytes(gen.feasibility) +
                 sim_stats.delivery_cycle.resident_bytes();
        return bytes;
    }

    /// Frees everything only full checks read, keeping the two scalars the
    /// steady state still compares against.
    void release_full_check_state() {
        gen = {};
        members = {};
        sim_stats = {};
    }
};

Session::Session(dim_t n, SessionParams params)
    : n_(n), params_(params), byte_budget_(params.plan_cache_bytes != 0),
      selector_(params_.comm ? *params_.comm : calibrate()),
      cache_(byte_budget_ ? params_.plan_cache_bytes
                          : params_.plan_cache_capacity),
      view_(n) {
    HCUBE_ENSURE(n >= 1 && n <= hc::kMaxDimension);
}

Session::~Session() = default;

model::CommParams Session::calibrate() const {
    // Two serial single-link micro-probes (n = 1, one packet, small and
    // large block): time = τ + B·t_c fitted through both points. The probe
    // is a combine-mode reduce, which copies and accumulates every element
    // of the block, so its time grows with B; a move-mode probe would be
    // zero-copy and time the same at every B. Below timer resolution the
    // fit degenerates; fall back to the iPSC constants so selection still
    // behaves sanely.
    const auto probe = [](std::uint32_t block) {
        const Signature sig{Op::reduce, Family::sbt, 1, 0, 1, block,
                            sim::PortModel::one_port_full_duplex};
        const GeneratedSchedule gen = make_schedule(sig);
        const rt::Plan plan =
            rt::compile_plan(gen.exec, gen.mode, block, 1, 1);
        rt::AsyncPlayer player(plan);
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 5; ++rep) {
            const rt::PlayStats stats = player.play();
            if (stats.seconds > 0 && stats.seconds < best) {
                best = stats.seconds;
            }
        }
        return best == std::numeric_limits<double>::infinity() ? 0.0 : best;
    };
    const double small_t = probe(64);
    const double large_t = probe(8192);
    try {
        return model::fit_params(64.0, small_t, 8192.0, large_t);
    } catch (const std::exception&) {
        return model::ipsc_params();
    }
}

Signature Session::plan_signature(Op op, node_t root,
                                  std::uint64_t message_elems) const {
    const Selection sel =
        selector_.select(op, n_, message_elems, params_.model);
    Signature sig;
    sig.op = op;
    sig.family = sel.family;
    sig.n = n_;
    sig.root = root;
    sig.packets = sel.packets;
    sig.block_elems = sel.block_elems;
    sig.model = params_.model;
    return sig;
}

std::shared_ptr<Session::PlanEntry>
Session::entry_for(const Signature& sig, const mbr::View& sub,
                   bool& cache_hit) {
    bool built = false;
    const auto factory = [&] {
        built = true;
        auto e = std::make_shared<PlanEntry>();
        if (sub.full()) {
            e->gen = make_schedule(sig);
        } else {
            e->gen = make_schedule(sig, sub);
            e->members = sub.members();
        }
        // The cycle executor proves the schedule feasible under the port
        // model and pins the makespan + delivery matrix (for reduce:
        // of the forward broadcast, which time-reversal preserves).
        e->sim_stats = sim::execute_schedule(e->gen.feasibility, sig.model);
        e->send_count = e->gen.exec.sends.size();
        e->makespan = e->sim_stats.makespan;
        // One worker, ring depth 1: the serial walk retires all of a
        // cycle's sends before its receives and a directed link carries at
        // most one block per cycle, so one ring slot per link is exact.
        e->plan = std::make_unique<rt::Plan>(
            rt::compile_plan(e->gen.exec, e->gen.mode, sig.block_elems,
                             /*workers=*/1, /*async_depth=*/1,
                             rt::PlanLayout::automatic, e->members));
        e->async = std::make_unique<rt::AsyncPlayer>(*e->plan);
        if (params_.verify != rt::Verify::never) {
            e->oracle = std::make_unique<rt::Player>(*e->plan);
        }
        e->charged_bytes = e->resident_bytes();
        return e;
    };
    auto entry =
        byte_budget_
            ? cache_.get_or_create(
                  sig, factory,
                  [](const std::shared_ptr<PlanEntry>& e) {
                      return e->charged_bytes;
                  })
            : cache_.get_or_create(sig, factory);
    cache_hit = !built;
    return entry;
}

ExecStats Session::execute(const Signature& sig) {
    // The view stays stable for the whole execution: transitions take the
    // exclusive side, so a membership change can never invalidate a plan
    // mid-flight.
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    if (std::optional<Rejection> rejection =
            preflight_against(sig, n_, view_)) {
        throw rejected_error(std::move(*rejection));
    }
    // Stamp the signature with its sub-cube's member-set epoch: the cache
    // key now names "this collective over this member set", so a
    // transition re-keys exactly the signatures whose sub-cube changed.
    Signature keyed = sig;
    keyed.view_epoch = view_.epoch_of_subcube(sig.n);
    const mbr::View sub = view_.restricted(sig.n);

    ExecStats out;
    out.view_epoch = keyed.view_epoch;
    out.member_count = sub.count();
    const std::shared_ptr<PlanEntry> entry =
        entry_for(keyed, sub, out.cache_hit);
    static obs::Counter& m_hits =
        obs::registry().counter("svc.plan_cache.hits");
    static obs::Counter& m_misses =
        obs::registry().counter("svc.plan_cache.misses");
    (out.cache_hit ? m_hits : m_misses).inc();
    const std::lock_guard<std::mutex> lock(entry->exec_mutex);

    const rt::Plan& plan = *entry->plan;
    const sim::Schedule& exec = entry->gen.exec; // full checks only
    const bool combining = plan.mode == rt::DataMode::combine;
    out.sim_makespan = entry->makespan;

    // Under Verify::first the full oracle pass runs until it has succeeded
    // once for this entry; afterwards (image_valid) runs take the
    // steady-state path. Verify::always re-runs it every time.
    const bool full_check =
        params_.verify == rt::Verify::always ||
        (params_.verify == rt::Verify::first && !entry->image_valid);
    out.oracle_checked = full_check && entry->oracle != nullptr;

    const auto structural_checks = [&](const rt::AsyncPlayer& player,
                                       const rt::PlayStats& stats) {
        bool ok =
            stats.clean() && stats.blocks_delivered == entry->send_count;
        if (!full_check && entry->image_valid) {
            // Steady state: combine entries byte-compare against the
            // oracle image of the first verified execution; move entries
            // check the slot→packet table against its stored fingerprint
            // and every final view against the arena block that table
            // names (pointer identity on the zero-copy path) — no second
            // image copy exists.
            if (combining) {
                return ok &&
                       matches_image(plan, player, entry->oracle_image);
            }
            return ok &&
                   entry->oracle_fingerprint == arena_fingerprint(plan) &&
                   matches_arena(plan, player);
        }
        // Full check (or Verify::never, which has no image): recompute the
        // content checks from first principles. Structural checks run
        // against the schedule's own cube (exec.n), which may be a
        // sub-cube of the session's.
        if (combining) {
            ok = ok && sums_match(player, exec.initial_holder[0],
                                  exec.packet_count, exec.n,
                                  plan.block_elems, entry->members);
        } else {
            ok = ok && rt::holdings_match(plan, player, entry->sim_stats);
        }
        return ok;
    };

    bool ok = true;
    if (out.oracle_checked) {
        const rt::PlayStats ref_stats = entry->oracle->play();
        ok = ref_stats.clean() &&
             ref_stats.blocks_delivered == entry->send_count &&
             ref_stats.cycles == entry->makespan;
    }
    const rt::PlayStats stats = entry->async->play();
    ok = ok && structural_checks(*entry->async, stats);
    if (out.oracle_checked) {
        ok = ok && rt::identical_memory(plan, *entry->oracle, *entry->async);
    }
    out.rt_cycles = stats.cycles;
    out.blocks_delivered = stats.blocks_delivered;
    out.payload_bytes = stats.payload_bytes;
    out.bytes_copied = stats.bytes_copied;
    out.exec_mode = stats.mode;
    out.transport = stats.transport;
    out.seconds = stats.seconds;
    if (ok && full_check && !entry->image_valid) {
        if (combining) {
            entry->oracle_image = snapshot_memory(plan, *entry->async);
        } else {
            entry->oracle_fingerprint = arena_fingerprint(plan);
        }
        entry->image_valid = true;
        if (params_.verify == rt::Verify::first) {
            // Steady state never re-runs the oracle or a full check;
            // free their memory.
            entry->oracle.reset();
            entry->release_full_check_state();
        }
    }
    out.verified = ok;
    out.plan_resident_bytes = entry->resident_bytes();
    // Executions change what the entry keeps resident (the first verified
    // pass drops the oracle player and the full-check state and
    // materializes the combine image; the first play that needs rings
    // builds them); re-price it whenever that happens so the byte budget
    // stays exact.
    if (byte_budget_ && out.plan_resident_bytes != entry->charged_bytes) {
        entry->charged_bytes = out.plan_resident_bytes;
        cache_.update_cost(keyed, out.plan_resident_bytes);
    }
    static obs::Gauge& m_resident =
        obs::registry().gauge("svc.plan_cache.resident_bytes");
    static obs::Counter& m_evict =
        obs::registry().counter("svc.plan_cache.evictions");
    m_resident.set(static_cast<std::int64_t>(cache_.total_cost()));
    sync_monotonic(m_evict, evictions_published_, cache_.stats().evictions);
    return out;
}

std::optional<Rejection> Session::preflight(const Signature& sig) const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    return preflight_against(sig, n_, view_);
}

mbr::View Session::view() const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    return view_;
}

std::uint64_t Session::view_epoch() const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    return view_.epoch();
}

std::size_t Session::evict_stale_epochs() {
    // Every resident key was stamped with its sub-cube's epoch at insert;
    // keys whose sub-cube saw this transition no longer match and are
    // dropped — keys below the touched address keep matching and stay.
    const std::size_t evicted = cache_.erase_if(
        [this](const Signature& key,
               const std::shared_ptr<PlanEntry>&) {
            return key.view_epoch != view_.epoch_of_subcube(key.n);
        });
    epoch_evictions_.fetch_add(evicted, std::memory_order_relaxed);
    static obs::Counter& m_epoch =
        obs::registry().counter("svc.plan_cache.epoch_evictions");
    static obs::Counter& m_evict =
        obs::registry().counter("svc.plan_cache.evictions");
    m_epoch.inc(evicted);
    sync_monotonic(m_evict, evictions_published_, cache_.stats().evictions);
    obs::registry()
        .gauge("svc.plan_cache.resident_bytes")
        .set(static_cast<std::int64_t>(cache_.total_cost()));
    return evicted;
}

std::size_t Session::join(node_t v) {
    const std::unique_lock<std::shared_mutex> view_lock(view_mutex_);
    view_.join(v);
    return evict_stale_epochs();
}

std::size_t Session::leave(node_t v) {
    const std::unique_lock<std::shared_mutex> view_lock(view_mutex_);
    view_.leave(v);
    return evict_stale_epochs();
}

std::size_t Session::apply(const mbr::Delta& delta) {
    const std::unique_lock<std::shared_mutex> view_lock(view_mutex_);
    view_.apply(delta);
    return evict_stale_epochs();
}

std::uint64_t Session::epoch_evictions() const noexcept {
    return epoch_evictions_.load(std::memory_order_relaxed);
}

hcube::CacheStats Session::cache_stats() const noexcept {
    return cache_.stats();
}

std::size_t Session::cached_plans() const { return cache_.size(); }

const rt::Plan* Session::cached_plan(const Signature& sig) const {
    const std::shared_lock<std::shared_mutex> view_lock(view_mutex_);
    Signature keyed = sig;
    keyed.view_epoch = view_.epoch_of_subcube(sig.n);
    const std::optional<std::shared_ptr<PlanEntry>> entry =
        cache_.peek(keyed);
    return entry ? (*entry)->plan.get() : nullptr;
}

std::uint64_t Session::cache_resident_bytes() const {
    return cache_.total_cost();
}

} // namespace hcube::svc
