// Wall-clock benchmark of the collective service (hcube::svc): steady-state
// request throughput of a persistent Service — plan cache, serial play on
// the dispatcher thread, Verify::first oracle policy, request batching —
// against the one-shot rt::Communicator baseline that re-validates,
// recompiles, and oracle-checks every operation.
//
// The workload cycles a small set of repeated signatures (the steady state
// a long-running service actually sees): after one warm-up pass per
// signature the plan cache serves every request, so the measured service
// path is play() + the byte-compare against the entry's oracle image.
// Client concurrency is swept (1, 4, 16); at higher concurrency identical
// queued signatures additionally coalesce into single executions
// (batching), which is where the throughput multiple comes from.
//
// Every request remains byte-verified — a row with "verified": false fails
// this binary (exit 1) and the CI grep gate. The selector rows record the
// calibrated cost model picking the SBT in the small-message regime and
// the MSBT above the measured crossover (Table 3's regimes, live). The
// first_execution rows price the other side of the cache: the median
// cache-miss execution per op (schedule, compile, barrier oracle, async
// play and the first-principles checks), each byte-verified.
//
//   bench_svc [--n 5] [--requests 96] [--block 256] [--queue 256]
//             [--json <path>]
#include "bench_util.hpp"

#include "common/json.hpp"
#include "routing/schedule_export.hpp"
#include "rt/communicator.hpp"
#include "svc/service.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using hcube::CliOptions;
using hcube::hc::dim_t;
using hcube::hc::node_t;
using hcube::sim::packet_t;
using namespace hcube::svc;

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    return values[rank];
}

Signature make_sig(Op op, Family family, dim_t n, node_t root,
                   packet_t packets, std::uint32_t block) {
    Signature s;
    s.op = op;
    s.family = family;
    s.n = n;
    s.root = root;
    s.packets = packets;
    s.block_elems = block;
    return s;
}

/// The repeated-signature steady-state mix both sides execute.
std::vector<Signature> workload(dim_t n, std::uint32_t block) {
    const auto np = static_cast<packet_t>(n);
    return {
        make_sig(Op::broadcast, Family::sbt, n, 0, 4, block),
        make_sig(Op::broadcast, Family::msbt, n, 0, 2 * np, block),
        make_sig(Op::scatter, Family::bst, n, 0, 2, block),
        make_sig(Op::reduce, Family::sbt, n, 0, 2, block),
    };
}

struct Measured {
    double ops_per_sec = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    bool verified = true;
    std::string transport = "ring"; ///< medium the measured runs used
};

/// One-shot baseline: the Communicator re-validates the schedule through
/// the cycle executor, recompiles the plan, and runs the barrier oracle
/// next to the async engine on every single request.
Measured run_baseline(dim_t n, const std::vector<Signature>& mix,
                      std::uint32_t block, int requests) {
    hcube::rt::Params params;
    params.block_elems = block;
    hcube::rt::Communicator comm(n, params);
    const auto sbt = hcube::trees::build_sbt(n, 0);
    const auto bst = hcube::trees::build_bst(n, 0);
    const auto run_one = [&](const Signature& sig) {
        switch (sig.op) {
        case Op::broadcast:
            return sig.family == Family::msbt
                       ? comm.broadcast_msbt(sig.root, sig.packets)
                       : comm.broadcast(
                             sbt,
                             hcube::routing::BroadcastDiscipline::
                                 port_oriented,
                             sig.packets);
        case Op::scatter:
            return comm.scatter(bst,
                                hcube::routing::ScatterPolicy::cyclic,
                                sig.packets);
        case Op::reduce:
            return comm.reduce(sbt, sig.packets);
        default: return comm.allgather();
        }
    };
    (void)run_one(mix[0]); // warm the pool and the page cache

    Measured m;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(static_cast<std::size_t>(requests));
    const double begin = now_seconds();
    for (int i = 0; i < requests; ++i) {
        const double t0 = now_seconds();
        const hcube::rt::Result r =
            run_one(mix[static_cast<std::size_t>(i) % mix.size()]);
        latencies_ms.push_back((now_seconds() - t0) * 1e3);
        m.verified = m.verified && r.verified;
        m.transport = hcube::ft::to_string(r.transport);
    }
    const double elapsed = now_seconds() - begin;
    m.ops_per_sec = elapsed > 0 ? requests / elapsed : 0;
    m.p50_ms = percentile(latencies_ms, 0.50);
    m.p99_ms = percentile(latencies_ms, 0.99);
    return m;
}

struct ServiceMeasured : Measured {
    double cache_hit_rate = 0;
    std::uint64_t batched = 0;
    std::uint64_t executed = 0;
};

ServiceMeasured run_service(dim_t n, const std::vector<Signature>& mix,
                            int requests, int concurrency,
                            std::size_t queue_depth) {
    ServiceParams params;
    params.session.verify = hcube::rt::Verify::first;
    params.queue_depth = queue_depth;
    Service service(n, params);
    std::string transport = "ring";
    for (const Signature& sig : mix) {
        // Warm-up: the one full oracle-checked execution per signature
        // (the cache miss). Everything measured below is steady state.
        const Response warm = service.run(sig);
        if (warm.status != Status::ok) {
            std::fprintf(stderr, "warm-up failed: %s\n",
                         sig.to_string().c_str());
        }
        transport = hcube::ft::to_string(warm.stats.transport);
    }

    ServiceMeasured m;
    m.transport = transport;
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(concurrency));
    std::atomic<bool> all_verified{true};
    const int per_client = requests / concurrency;
    const double begin = now_seconds();
    std::vector<std::thread> clients;
    for (int c = 0; c < concurrency; ++c) {
        clients.emplace_back([&, c] {
            auto& lane = latencies[static_cast<std::size_t>(c)];
            lane.reserve(static_cast<std::size_t>(per_client));
            for (int i = 0; i < per_client; ++i) {
                const Signature& sig =
                    mix[static_cast<std::size_t>(c + i) % mix.size()];
                const double t0 = now_seconds();
                const Response r = service.run(sig);
                lane.push_back((now_seconds() - t0) * 1e3);
                if (r.status != Status::ok || !r.stats.verified) {
                    all_verified.store(false);
                }
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    const double elapsed = now_seconds() - begin;

    std::vector<double> all_ms;
    for (const auto& lane : latencies) {
        all_ms.insert(all_ms.end(), lane.begin(), lane.end());
    }
    const double completed = static_cast<double>(all_ms.size());
    m.ops_per_sec = elapsed > 0 ? completed / elapsed : 0;
    m.p50_ms = percentile(all_ms, 0.50);
    m.p99_ms = percentile(all_ms, 0.99);
    m.verified = all_verified.load();
    // Requests served without compiling a plan: everything except the
    // cache misses (one per distinct signature, during warm-up). Batched
    // riders never touch the cache at all, so this is computed over
    // completed requests rather than raw cache lookups.
    const hcube::CacheStats cache = service.session().cache_stats();
    const double served = completed + static_cast<double>(mix.size());
    m.cache_hit_rate =
        served > 0
            ? (served - static_cast<double>(cache.misses)) / served
            : 0;
    const Service::Counters counters = service.counters();
    m.batched = counters.batched;
    m.executed = counters.executed;
    return m;
}

// ------------------------------------------------------ first execution --

struct FirstMeasured {
    std::size_t signatures = 0;
    double median_us = 0;
    double min_us = 0;
    double max_us = 0;
    bool verified = true;
};

/// Distinct signatures timed per first_execution row (fewer on cubes with
/// fewer nodes: the signatures differ only by root).
constexpr std::size_t kFirstSigs = 16;

/// Cache-miss cost of `proto`'s op: one fresh Session, then
/// min(kFirstSigs, 2^n) distinct signatures of that op (roots 0, 1, ...),
/// each executed once — every execution a Verify::first oracle pass.
FirstMeasured run_first_executions(dim_t n, const Signature& proto) {
    Session session(n, SessionParams{});
    FirstMeasured m;
    std::vector<double> us;
    const std::size_t count = std::min(kFirstSigs, std::size_t{1} << n);
    for (std::size_t i = 0; i < count; ++i) {
        Signature sig = proto;
        sig.root = static_cast<node_t>(i);
        const double t0 = now_seconds();
        const ExecStats stats = session.execute(sig);
        us.push_back((now_seconds() - t0) * 1e6);
        m.verified = m.verified && stats.verified && !stats.cache_hit &&
                     stats.oracle_checked;
    }
    m.signatures = us.size();
    m.median_us = percentile(us, 0.50);
    m.min_us = percentile(us, 0.0);
    m.max_us = percentile(us, 1.0);
    return m;
}

// ------------------------------------------------- plan footprint sweep --

/// Deterministic mixed-dimension signature population for the residency
/// sweep: `count` distinct signatures over n = 3..10, weighted toward the
/// small cubes a long-running service mostly sees (an entry's resident
/// bytes are dominated by its channel rings, which scale with 2^n), while
/// every dimension up to the 10-cube stays represented. Small cubes cover
/// every valid (op, family) pair and vary root, packet count, and block
/// size; the big cubes stick to single-packet tree collectives at the
/// smallest block so the whole population fits one 64 MiB budget.
std::vector<Signature> sweep_population(std::size_t count) {
    // Per-dimension share of the population, /1200.
    static constexpr struct {
        dim_t n;
        std::size_t share;
    } kQuota[] = {{3, 440}, {4, 350}, {5, 250}, {6, 100},
                  {7, 30},  {8, 12},  {9, 8},   {10, 6}};
    std::set<Signature> unique;
    std::vector<Signature> sigs;
    for (const auto& [n, share] : kQuota) {
        const std::size_t want = std::max<std::size_t>(
            1, sigs.size() + share * count / 1200 > count
                   ? count - sigs.size()
                   : share * count / 1200);
        const auto nodes = node_t{1} << n;
        std::size_t made = 0;
        for (std::size_t j = 0; made < want && j < want * 16; ++j) {
            // Mixed-radix decode of j into (op, root, packets, block):
            // every tuple is distinct until the space is exhausted, so the
            // quota is met without correlated-modulus collisions.
            const std::size_t cases = n >= 7 ? 3 : 8;
            const auto op_case = static_cast<int>(j % cases);
            std::size_t t = j / cases;
            const auto root = static_cast<node_t>(t % nodes);
            t /= nodes;
            const auto pk =
                static_cast<packet_t>(n >= 7 ? 1 : 1 + t % 3);
            t /= 3;
            const auto block = static_cast<std::uint32_t>(
                n >= 7 ? 8 : 8 * (1 + t % 4));
            Signature sig;
            switch (op_case) {
            case 0:
                sig = make_sig(Op::broadcast, Family::sbt, n, root, pk,
                               block);
                break;
            case 1:
                sig = make_sig(Op::scatter, Family::bst, n, root, pk,
                               block);
                break;
            case 2:
                sig = make_sig(Op::gather, Family::sbt, n, root, pk,
                               block);
                break;
            case 3:
                sig = make_sig(Op::scatter, Family::sbt, n, root, pk,
                               block);
                break;
            case 4:
                sig = make_sig(Op::gather, Family::bst, n, root, pk,
                               block);
                break;
            case 5:
                sig = make_sig(Op::reduce, Family::sbt, n, root, pk,
                               block);
                break;
            case 6:
                sig = make_sig(Op::broadcast, Family::msbt, n, root,
                               static_cast<packet_t>(n), block);
                break;
            default:
                sig = n <= 5 ? make_sig(root % 2 == 0 ? Op::allgather
                                                      : Op::alltoall,
                                        Family::sbt, n, 0, 1, block)
                             : make_sig(Op::broadcast, Family::sbt, n,
                                        root, static_cast<packet_t>(4),
                                        block);
                break;
            }
            if (unique.insert(sig).second) {
                sigs.push_back(sig);
                ++made;
            }
        }
        if (sigs.size() >= count) {
            break;
        }
    }
    return sigs;
}

struct SweepMeasured {
    std::size_t signatures = 0;
    std::size_t resident_plans = 0;
    std::uint64_t resident_bytes = 0;
    double bytes_per_plan = 0;
    double compile_ms = 0;
    double hit_rate = 0;
    std::uint64_t evictions = 0;
    bool verified = true;
};

/// Thousand-signature residency: every signature executed once cold, then
/// `passes - 1` more rounds over the whole population under one fixed byte
/// budget. The acceptance bar is >= 1000 plans resident in <= 64 MiB at
/// >= 90% cache hit rate, every request byte-verified.
SweepMeasured run_footprint_sweep(const std::vector<Signature>& sigs,
                                  std::uint64_t budget_bytes, int passes) {
    SessionParams params;
    params.plan_cache_bytes = budget_bytes;
    Session session(10, params);
    SweepMeasured m;
    m.signatures = sigs.size();
    for (int pass = 0; pass < passes; ++pass) {
        for (const Signature& sig : sigs) {
            const ExecStats stats = session.execute(sig);
            m.verified = m.verified && stats.verified;
        }
    }
    const hcube::CacheStats cache = session.cache_stats();
    const double lookups =
        static_cast<double>(cache.hits + cache.misses);
    m.hit_rate =
        lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0;
    m.evictions = cache.evictions;
    m.resident_plans = session.cached_plans();
    m.resident_bytes = session.cache_resident_bytes();
    m.bytes_per_plan =
        m.resident_plans > 0 ? static_cast<double>(m.resident_bytes) /
                                   static_cast<double>(m.resident_plans)
                             : 0;
    // Compile cost, measured directly on a sample of the population
    // (schedule generation + rt::compile_plan, no execution).
    double compile_seconds = 0;
    std::size_t compiled = 0;
    for (std::size_t i = 0; i < sigs.size(); i += 59) {
        const GeneratedSchedule gen = make_schedule(sigs[i]);
        const double t0 = now_seconds();
        const hcube::rt::Plan plan = hcube::rt::compile_plan(
            gen.exec, gen.mode, sigs[i].block_elems, 4);
        compile_seconds += now_seconds() - t0;
        ++compiled;
        (void)plan;
    }
    m.compile_ms = compiled > 0
                       ? compile_seconds * 1e3 /
                             static_cast<double>(compiled)
                       : 0;
    return m;
}

struct ShrinkMeasured {
    std::uint64_t compact_bytes = 0;
    std::uint64_t pre_pr_bytes = 0;
    double ratio = 0;
};

/// The ISSUE acceptance number: entry resident bytes of the cached
/// sbt_broadcast n=8 plan under the compact encoding, against the pre-PR
/// layout reconstructed analytically — the wide (reference) encoding's
/// entry plus the full per-entry oracle image the cache used to snapshot
/// for move-mode plans (total_slots x block doubles; it now keeps an
/// 8-byte arena fingerprint instead).
ShrinkMeasured measure_sbt8_shrink(std::uint32_t block) {
    const Signature sig =
        make_sig(Op::broadcast, Family::sbt, 8, 0, 4, block);
    SessionParams compact_params;
    SessionParams wide_params = compact_params;
    wide_params.plan_layout = hcube::rt::PlanLayout::wide;
    Session compact_session(8, compact_params);
    Session wide_session(8, wide_params);
    ShrinkMeasured m;
    m.compact_bytes = compact_session.execute(sig).plan_resident_bytes;
    const std::uint64_t wide_entry =
        wide_session.execute(sig).plan_resident_bytes;
    // Every node holds every packet after a broadcast.
    const std::uint64_t image_bytes =
        (std::uint64_t{1} << 8) * sig.packets * sig.block_elems * 8;
    m.pre_pr_bytes = wide_entry + image_bytes;
    m.ratio = m.compact_bytes > 0
                  ? static_cast<double>(m.pre_pr_bytes) /
                        static_cast<double>(m.compact_bytes)
                  : 0;
    return m;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const auto n = static_cast<dim_t>(options.get_int("n", 5));
    const int requests = static_cast<int>(options.get_int("requests", 96));
    const auto block =
        static_cast<std::uint32_t>(options.get_int("block", 256));
    const auto queue_depth =
        static_cast<std::size_t>(options.get_int("queue", 256));
    const std::string json_path = options.get_string("json", "");

    hcube::bench::banner(
        "hcube::svc service throughput",
        "persistent service (plan cache + serial play + batching) vs "
        "one-shot rt::Communicator");

    const std::vector<Signature> mix = workload(n, block);
    std::printf("n=%d  requests=%d  block=%u doubles  mix=%zu signatures\n\n",
                n, requests, block, mix.size());

    std::unique_ptr<hcube::JsonArrayWriter> json;
    if (!json_path.empty()) {
        json = std::make_unique<hcube::JsonArrayWriter>(json_path);
    }

    bool verified = true;

    const Measured baseline = run_baseline(n, mix, block, requests);
    verified = verified && baseline.verified;
    std::printf("%-22s %11s %9s %9s %9s %8s %9s\n", "mode", "ops/s",
                "p50 ms", "p99 ms", "speedup", "hit%", "verified");
    std::printf("%-22s %11.1f %9.3f %9.3f %9s %8s %9s\n",
                "communicator(1-shot)", baseline.ops_per_sec,
                baseline.p50_ms, baseline.p99_ms, "1.00", "-",
                baseline.verified ? "yes" : "NO");
    if (json) {
        json->begin_row();
        json->field("mode", "communicator_one_shot");
        json->field("n", n);
        json->field("concurrency", 1);
        json->field("requests", requests);
        json->field("ops_per_sec", baseline.ops_per_sec);
        json->field("p50_ms", baseline.p50_ms);
        json->field("p99_ms", baseline.p99_ms);
        json->field("speedup_vs_baseline", 1.0);
        json->field("transport", baseline.transport);
        json->field("verified", baseline.verified);
        json->end_row();
    }

    for (const int concurrency : {1, 4, 16}) {
        const ServiceMeasured svc =
            run_service(n, mix, requests, concurrency, queue_depth);
        verified = verified && svc.verified;
        const double speedup = baseline.ops_per_sec > 0
                                   ? svc.ops_per_sec / baseline.ops_per_sec
                                   : 0;
        char mode[32];
        std::snprintf(mode, sizeof mode, "service(c=%d)", concurrency);
        std::printf("%-22s %11.1f %9.3f %9.3f %9.2f %8.1f %9s\n", mode,
                    svc.ops_per_sec, svc.p50_ms, svc.p99_ms, speedup,
                    svc.cache_hit_rate * 100,
                    svc.verified ? "yes" : "NO");
        if (json) {
            json->begin_row();
            json->field("mode", "service");
            json->field("n", n);
            json->field("concurrency", concurrency);
            json->field("requests", requests);
            json->field("ops_per_sec", svc.ops_per_sec);
            json->field("p50_ms", svc.p50_ms);
            json->field("p99_ms", svc.p99_ms);
            json->field("speedup_vs_baseline", speedup);
            json->field("cache_hit_rate", svc.cache_hit_rate);
            json->field("batched", svc.batched);
            json->field("executed", svc.executed);
            json->field("transport", svc.transport);
            json->field("verified", svc.verified);
            json->end_row();
        }
    }

    // First executions: every op's cache-miss path at this n.
    std::printf("\nfirst execution (Verify::first cache miss), %zu "
                "signatures per op:\n",
                std::min(kFirstSigs, std::size_t{1} << n));
    std::printf("  %-10s %-6s %8s %12s %12s %12s %9s\n", "op", "family",
                "packets", "median us", "min us", "max us", "verified");
    for (const Signature& proto :
         {make_sig(Op::broadcast, Family::sbt, n, 0, 4, block),
          make_sig(Op::scatter, Family::bst, n, 0, 2, block),
          make_sig(Op::gather, Family::sbt, n, 0, 2, block),
          make_sig(Op::allgather, Family::sbt, n, 0, 1, block),
          make_sig(Op::alltoall, Family::sbt, n, 0, 1, block),
          make_sig(Op::reduce, Family::sbt, n, 0, 2, block)}) {
        const FirstMeasured first = run_first_executions(n, proto);
        verified = verified && first.verified;
        const std::string op(to_string(proto.op));
        const std::string family(to_string(proto.family));
        std::printf("  %-10s %-6s %8u %12.1f %12.1f %12.1f %9s\n",
                    op.c_str(), family.c_str(), proto.packets,
                    first.median_us, first.min_us, first.max_us,
                    first.verified ? "yes" : "NO");
        if (json) {
            json->begin_row();
            json->field("mode", "first_execution");
            json->field("op", op);
            json->field("family", family);
            json->field("n", n);
            json->field("packets", proto.packets);
            json->field("block_elems", block);
            json->field("signatures",
                        static_cast<std::uint64_t>(first.signatures));
            json->field("median_us", first.median_us);
            json->field("min_us", first.min_us);
            json->field("max_us", first.max_us);
            json->field("verified", first.verified);
            json->end_row();
        }
    }

    // Plan residency: thousand-signature footprint sweep under one fixed
    // byte budget, and the sbt_broadcast n=8 shrink vs the pre-PR layout.
    const auto sweep_sigs = static_cast<std::size_t>(
        options.get_int("sweep-sigs", 1200));
    const int sweep_passes =
        static_cast<int>(options.get_int("sweep-passes", 11));
    const std::uint64_t sweep_budget = 64ull << 20;
    const std::vector<Signature> population = sweep_population(sweep_sigs);
    const SweepMeasured sweep =
        run_footprint_sweep(population, sweep_budget, sweep_passes);
    const bool sweep_ok =
        sweep.verified && sweep.hit_rate >= 0.90 &&
        sweep.resident_bytes <= sweep_budget &&
        (population.size() < 1000 || sweep.resident_plans >= 1000);
    verified = verified && sweep_ok;
    std::printf("\nplan footprint sweep: %zu signatures (n=3..10), "
                "budget %llu MiB, %d passes\n"
                "  resident %zu plans, %.1f KiB/plan, compile %.3f ms, "
                "hit %.1f%%, evictions %llu -> %s\n",
                sweep.signatures,
                static_cast<unsigned long long>(sweep_budget >> 20),
                sweep_passes, sweep.resident_plans,
                sweep.bytes_per_plan / 1024.0, sweep.compile_ms,
                sweep.hit_rate * 100,
                static_cast<unsigned long long>(sweep.evictions),
                sweep_ok ? "ok" : "FAILED");
    if (json) {
        json->begin_row();
        json->field("mode", "plan_footprint_sweep");
        json->field("signatures",
                    static_cast<std::uint64_t>(sweep.signatures));
        json->field("resident_plans",
                    static_cast<std::uint64_t>(sweep.resident_plans));
        json->field("resident_bytes", sweep.resident_bytes);
        json->field("budget_bytes", sweep_budget);
        json->field("bytes_per_plan", sweep.bytes_per_plan);
        json->field("compile_ms", sweep.compile_ms);
        json->field("cache_hit_rate", sweep.hit_rate);
        json->field("evictions", sweep.evictions);
        json->field("passes", sweep_passes);
        json->field("verified", sweep_ok);
        json->end_row();
    }

    const ShrinkMeasured shrink = measure_sbt8_shrink(block);
    const bool shrink_ok = shrink.ratio >= 4.0;
    verified = verified && shrink_ok;
    std::printf("sbt_broadcast n=8 entry: %llu bytes compact vs %llu "
                "pre-PR (wide + oracle image) -> %.1fx %s\n",
                static_cast<unsigned long long>(shrink.compact_bytes),
                static_cast<unsigned long long>(shrink.pre_pr_bytes),
                shrink.ratio, shrink_ok ? "(>= 4x ok)" : "(< 4x FAILED)");
    if (json) {
        json->begin_row();
        json->field("mode", "plan_compaction");
        json->field("family", "sbt_broadcast");
        json->field("n", 8);
        json->field("block_elems", block);
        json->field("bytes_per_plan",
                    static_cast<double>(shrink.compact_bytes));
        json->field("pre_pr_bytes", shrink.pre_pr_bytes);
        json->field("shrink_ratio", shrink.ratio);
        json->field("verified", shrink_ok);
        json->end_row();
    }

    // Selector regimes under the session's calibrated machine constants:
    // the SBT below the measured crossover, the MSBT above it (Table 3).
    Session session(n, SessionParams{});
    const auto& selector = session.selector();
    const auto model = hcube::sim::PortModel::one_port_full_duplex;
    const std::uint64_t crossover = selector.broadcast_crossover(n, model);
    std::printf("\ncalibrated: tau=%.3g s  tc=%.3g s/elem  "
                "broadcast crossover=%llu elems\n",
                selector.comm_params().tau, selector.comm_params().tc,
                static_cast<unsigned long long>(crossover));
    const std::uint64_t small_m = std::max<std::uint64_t>(1, crossover / 4);
    const std::uint64_t large_m = crossover * 4;
    for (const std::uint64_t elems : {small_m, large_m}) {
        const Selection sel =
            selector.select(Op::broadcast, n, elems, model);
        std::printf("  broadcast of %10llu elems -> %-4s  B_int=%u  "
                    "packets=%u  T=%.3g s (alt %.3g s)\n",
                    static_cast<unsigned long long>(elems),
                    std::string(to_string(sel.family)).c_str(),
                    sel.block_elems, sel.packets, sel.predicted_seconds,
                    sel.rejected_seconds);
        if (json) {
            json->begin_row();
            json->field("mode", "selector");
            json->field("n", n);
            json->field("message_elems", elems);
            json->field("regime",
                        elems < crossover ? "small" : "large");
            json->field("family", std::string(to_string(sel.family)));
            json->field("block_elems", sel.block_elems);
            json->field("packets", sel.packets);
            json->field("predicted_seconds", sel.predicted_seconds);
            json->field("rejected_seconds", sel.rejected_seconds);
            json->field("crossover_elems", crossover);
            json->field("tau", selector.comm_params().tau);
            json->field("tc", selector.comm_params().tc);
            json->field("verified", true);
            json->end_row();
        }
    }

    if (json && !json->close()) {
        std::fprintf(stderr, "failed writing %s\n", json_path.c_str());
        return 1;
    }
    if (!verified) {
        std::fprintf(stderr, "VERIFICATION FAILED\n");
        return 1;
    }
    std::printf("\nall requests byte-verified\n");
    return 0;
}
