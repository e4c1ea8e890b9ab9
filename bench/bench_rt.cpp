// Wall-clock benchmark of the in-process collective runtime (hcube::rt):
// the barrier oracle and the AsyncPlayer's serial walk on one-worker plans,
// with four cross-checks per configuration —
//   * the barrier engine's cycle count must equal the CycleExecutor
//     makespan of the same schedule exactly,
//   * the makespan is printed next to the model:: closed-form step count
//     (Table 3) where one exists,
//   * every delivered block is checksum-verified,
//   * the async engine's final memory must be byte-identical to the
//     barrier engine's (the oracle check).
//
// Every (workload, n, block) runs under both engines: one barrier row and
// one async row. The serial walk executes every production play; the
// barrier Player only checks it. The async row's `speedup` column is
// barrier-seconds / async-seconds at identical payload — what a play costs
// the oracle (two barrier crossings per routing cycle) against the
// barrier-free walk. The paper's algorithm-vs-algorithm speedups need
// ports that run in parallel, so they are not measured here.
//
// The timed region is play() only: schedule generation, plan compilation
// and allocation are excluded, mirroring bench_executor.
//
// Rows report bytes, not bandwidth: payload_bytes is the logical payload
// delivered (blocks x block bytes), bytes_copied the payload the engine
// actually memcpy'd — 0 on the zero-copy delivery path, where a hop
// forwards a pointer and no GB/s figure would mean anything.
//
//   bench_rt --nmin 4 --nmax 8 [--pps 4] [--ppd 2] [--block 32,1024]
//            [--reps 3] [--min-time 0.1] [--json <path>]
//            [--trace-out <path>]
//
// --block takes a comma-separated list of block sizes (doubles); the
// default "32,1024" covers a latency-bound and a bandwidth-bound size in
// one run. Each JSON row also reports checksum_gbs (the standalone digest
// throughput of the dispatched checksum kernel at that block size) and
// mode (how the engine executed: barrier or serial).
//
// --trace-out writes a chrome://tracing (Perfetto-compatible) JSON file:
// one extra instrumented serial-walk run per (workload, n, block)
// configuration, begin/end of every send/recv action, one process (pid)
// per configuration. Keep the sweep narrow when tracing.
#include "bench_util.hpp"

#include "common/json.hpp"
#include "model/broadcast_model.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/checksum.hpp"
#include "rt/communicator.hpp"
#include "rt/plan.hpp"
#include "rt/player.hpp"
#include "rt/simd.hpp"
#include "rt/tracing.hpp"
#include "rt/verify.hpp"
#include "sim/cycle.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace {

using hcube::CliOptions;
using hcube::hc::dim_t;
using hcube::sim::packet_t;
using hcube::sim::PortModel;
using hcube::sim::Schedule;

struct Workload {
    std::string name;
    std::string op;   ///< broadcast | scatter
    std::string algo; ///< sbt | msbt | bst
    std::function<Schedule(dim_t)> generate;
    /// Closed-form routing-step count from model::, 0 if none applies.
    std::function<double(dim_t, packet_t)> model_steps;
};

struct Row {
    std::string workload;
    std::string op;
    std::string algo;
    std::string player; ///< barrier (the oracle) | async (the serial walk)
    dim_t n = 0;
    std::uint64_t block_elems = 0;
    packet_t packets = 0;
    std::uint32_t rt_cycles = 0;
    std::uint32_t sim_makespan = 0;
    double model_steps = 0;
    std::uint64_t blocks_delivered = 0;
    std::uint64_t payload_bytes = 0; ///< logical: blocks x block bytes
    std::uint64_t bytes_copied = 0; ///< 0 on the zero-copy delivery path
    std::uint64_t checksum_failures = 0;
    std::uint64_t channel_faults = 0;
    std::uint64_t timeouts = 0;
    double seconds = 0; ///< best-of-reps wall clock of play()
    double checksum_gbs = 0; ///< standalone digest kernel throughput
    double speedup = 0; ///< async rows: barrier seconds / async seconds
    std::string mode; ///< barrier | serial
    std::string transport = "ring"; ///< medium the blocks moved over
    bool verified = false;
};

/// Parses "--block 32,1024,4096" into a deduplicated size list.
std::vector<std::size_t> parse_block_list(const std::string& spec) {
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!item.empty()) {
            const auto value =
                static_cast<std::size_t>(std::strtoull(item.c_str(),
                                                       nullptr, 10));
            if (value > 0 &&
                std::ranges::find(out, value) == out.end()) {
                out.push_back(value);
            }
        }
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return out;
}

/// Standalone throughput of the dispatched checksum kernel at one block
/// size: GB digested per second over a cache-resident canonical block.
double checksum_throughput(std::size_t block_elems) {
    using clock = std::chrono::steady_clock;
    std::vector<double> block(block_elems);
    hcube::rt::fill_canonical(block, 0);
    std::uint64_t sink = 0;
    // Warm the dispatch target and the cache lines before timing.
    for (int k = 0; k < 16; ++k) {
        sink ^= hcube::rt::simd::checksum(block.data(), block_elems);
    }
    std::uint64_t iters = 0;
    const auto t0 = clock::now();
    double elapsed = 0;
    do {
        for (int k = 0; k < 64; ++k) {
            sink ^= hcube::rt::simd::checksum(block.data(), block_elems);
        }
        iters += 64;
        elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    } while (elapsed < 0.02);
    // The digest chain keeps the optimizer honest without a volatile store
    // in the timed loop.
    if (sink == 0xDEADBEEF) {
        std::printf("#");
    }
    return static_cast<double>(iters) *
           static_cast<double>(block_elems * sizeof(double)) / elapsed *
           1e-9;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions options(argc, argv);
    const auto nmin = static_cast<dim_t>(options.get_int("nmin", 4));
    const auto nmax = static_cast<dim_t>(options.get_int("nmax", 8));
    const auto pps = static_cast<packet_t>(options.get_int("pps", 4));
    const auto ppd = static_cast<packet_t>(options.get_int("ppd", 2));
    const std::vector<std::size_t> blocks =
        parse_block_list(options.get_string("block", "32,1024"));
    if (blocks.empty()) {
        std::fprintf(stderr, "--block needs a comma-separated size list\n");
        return 1;
    }
    const auto reps = static_cast<int>(options.get_int("reps", 3));
    const double min_time = options.get_double("min-time", 0.1);
    const std::string json_path = options.get_string("json", "");
    const std::string trace_path = options.get_string("trace-out", "");

    std::unique_ptr<hcube::JsonArrayWriter> trace_json;
    if (!trace_path.empty()) {
        trace_json = std::make_unique<hcube::JsonArrayWriter>(trace_path);
        if (!trace_json->ok()) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         trace_path.c_str());
            return 1;
        }
    }
    std::uint32_t trace_pid = 0;

    hcube::bench::banner(
        "Runtime throughput",
        "barrier oracle vs serial walk: wall clock and bytes moved");
    std::string block_list;
    for (const std::size_t b : blocks) {
        block_list += (block_list.empty() ? "" : ",") + std::to_string(b);
    }
    std::printf("  blocks=%s doubles  checksum dispatch=%s "
                "(timed region: play() only, best of >= %d reps)\n\n",
                block_list.c_str(), hcube::rt::simd::dispatch_name(), reps);

    // The digest kernel's standalone throughput per block size — attached
    // to every row of that size so the JSON carries the checksum cost
    // alongside the end-to-end delivery numbers it is buried in.
    std::vector<double> checksum_gbs(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        checksum_gbs[i] = checksum_throughput(blocks[i]);
        std::printf("  checksum(%zu doubles): %.2f GB/s\n", blocks[i],
                    checksum_gbs[i]);
    }
    std::printf("\n");

    // Broadcast pair uses the same total packet count P = n * pps for both
    // algorithms (the MSBT needs P divisible by n), so byte-for-byte the
    // same message crosses the cube. Scatter pair uses ppd packets per
    // destination on both trees.
    const std::vector<Workload> workloads = {
        {"sbt_bcast", "broadcast", "sbt",
         [pps](dim_t n) {
             return hcube::routing::make_tree_broadcast(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::BroadcastDiscipline::port_oriented,
                 static_cast<packet_t>(n) * pps,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t n, packet_t packets) {
             return static_cast<double>(n) * packets;
         }},
        {"msbt_bcast", "broadcast", "msbt",
         [pps](dim_t n) {
             return hcube::routing::make_msbt_broadcast(
                 n, 0, static_cast<packet_t>(n) * pps,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t n, packet_t packets) {
             return static_cast<double>(packets) + n;
         }},
        {"sbt_scatter", "scatter", "sbt",
         [ppd](dim_t n) {
             return hcube::routing::make_tree_scatter(
                 hcube::trees::build_sbt(n, 0),
                 hcube::routing::ScatterPolicy::descending, ppd,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t, packet_t) { return 0.0; }},
        {"bst_scatter", "scatter", "bst",
         [ppd](dim_t n) {
             return hcube::routing::make_tree_scatter(
                 hcube::trees::build_bst(n, 0),
                 hcube::routing::ScatterPolicy::cyclic, ppd,
                 PortModel::one_port_full_duplex);
         },
         [](dim_t, packet_t) { return 0.0; }},
    };

    std::printf("%-12s %3s %5s %-8s %8s %7s %10s %12s %12s %9s %-8s %8s "
                "%5s\n",
                "workload", "n", "blk", "engine", "packets", "cycles",
                "blocks", "payload B", "copied B", "us", "mode", "speedup",
                "ok");

    std::vector<Row> rows;
    for (const Workload& w : workloads) {
        for (dim_t n = nmin; n <= nmax; ++n) {
            const Schedule schedule = w.generate(n);
            const auto sim_stats = hcube::sim::execute_schedule(
                schedule, PortModel::one_port_full_duplex);

            for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
                const std::size_t block = blocks[bi];
                const hcube::rt::Plan plan = hcube::rt::compile_plan(
                    schedule, hcube::rt::DataMode::move, block, 1);
                hcube::rt::Player barrier_player(plan);
                hcube::rt::AsyncPlayer async_player(plan);

                Row base;
                base.workload = w.name;
                base.op = w.op;
                base.algo = w.algo;
                base.n = n;
                base.block_elems = block;
                base.packets = schedule.packet_count;
                base.sim_makespan = sim_stats.makespan;
                base.model_steps = w.model_steps(n, schedule.packet_count);
                base.checksum_gbs = checksum_gbs[bi];

                // One rep loop per engine, identical policy: best-of wall
                // clock over >= reps runs or min_time, whichever is later.
                const auto measure = [&](auto& player, Row& row) {
                    row.seconds = 1e300;
                    row.verified = true;
                    double elapsed = 0.0;
                    int runs = 0;
                    while (runs < reps || elapsed < min_time) {
                        const auto stats = player.play();
                        row.rt_cycles = stats.cycles;
                        row.blocks_delivered = stats.blocks_delivered;
                        row.payload_bytes = stats.payload_bytes;
                        row.bytes_copied = stats.bytes_copied;
                        row.mode = hcube::rt::to_string(stats.mode);
                        row.transport = hcube::ft::to_string(stats.transport);
                        row.checksum_failures += stats.checksum_failures;
                        row.channel_faults += stats.channel_faults;
                        row.timeouts += stats.timeouts;
                        row.seconds = std::min(row.seconds, stats.seconds);
                        row.verified =
                            row.verified && stats.clean() &&
                            stats.cycles == sim_stats.makespan &&
                            stats.blocks_delivered ==
                                schedule.sends.size();
                        elapsed += stats.seconds;
                        ++runs;
                        if (runs >= 1000) {
                            break;
                        }
                    }
                };

                Row barrier_row = base;
                barrier_row.player = "barrier";
                measure(barrier_player, barrier_row);

                Row async_row = base;
                async_row.player = "async";
                measure(async_player, async_row);
                // The oracle check: after both engines' final reps the
                // memory images must agree byte for byte.
                async_row.verified =
                    async_row.verified && barrier_row.verified &&
                    hcube::rt::identical_memory(plan, barrier_player,
                                                async_player);
                async_row.speedup =
                    barrier_row.seconds / async_row.seconds;

                for (const Row* row : {&barrier_row, &async_row}) {
                    std::printf("%-12s %3d %5zu %-8s %8u %7u %10llu %12llu "
                                "%12llu %9.2f %-8s ",
                                row->workload.c_str(), n, block,
                                row->player.c_str(), row->packets,
                                row->rt_cycles,
                                static_cast<unsigned long long>(
                                    row->blocks_delivered),
                                static_cast<unsigned long long>(
                                    row->payload_bytes),
                                static_cast<unsigned long long>(
                                    row->bytes_copied),
                                row->seconds * 1e6, row->mode.c_str());
                    if (row->speedup > 0) {
                        std::printf("%7.2fx ", row->speedup);
                    } else {
                        std::printf("%8s ", "-");
                    }
                    std::printf("%5s\n", row->verified ? "yes" : "NO");
                }
                std::fflush(stdout);
                rows.push_back(barrier_row);
                rows.push_back(async_row);

                if (trace_json != nullptr) {
                    // One instrumented (untimed) run of the serial walk,
                    // the engine that executes; every configuration
                    // becomes its own chrome-trace process.
                    hcube::rt::TraceRecorder recorder(1);
                    async_player.set_trace(&recorder);
                    (void)async_player.play();
                    async_player.set_trace(nullptr);
                    recorder.append_chrome_events(
                        *trace_json, trace_pid++,
                        w.name + " n=" + std::to_string(n) +
                            " blk=" + std::to_string(block));
                }
            }
        }
    }

    if (!json_path.empty()) {
        hcube::JsonArrayWriter json(json_path);
        if (!json.ok()) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         json_path.c_str());
            return 1;
        }
        for (const Row& r : rows) {
            json.begin_row();
            json.field("workload", r.workload);
            json.field("op", r.op);
            json.field("algo", r.algo);
            json.field("engine", r.player);
            json.field("n", r.n);
            json.field("block_elems", r.block_elems);
            json.field("packets", r.packets);
            json.field("rt_cycles", r.rt_cycles);
            json.field("sim_makespan", r.sim_makespan);
            if (r.model_steps > 0) {
                json.field("model_steps", r.model_steps);
            }
            json.field("blocks_delivered", r.blocks_delivered);
            json.field("payload_bytes", r.payload_bytes);
            json.field("bytes_copied", r.bytes_copied);
            json.field("checksum_gbs", r.checksum_gbs);
            json.field("mode", r.mode);
            json.field("transport", r.transport);
            json.field("checksum_failures", r.checksum_failures);
            json.field("channel_faults", r.channel_faults);
            json.field("timeouts", r.timeouts);
            json.field("seconds", r.seconds);
            if (r.player == "async") {
                json.field("speedup_vs_barrier", r.speedup);
            }
            json.field("verified", r.verified);
            json.end_row();
        }
        if (json.close()) {
            std::printf("\nwrote %s\n", json_path.c_str());
        }
    }

    if (trace_json != nullptr && trace_json->close()) {
        std::printf("wrote %s\n", trace_path.c_str());
    }

    bool all_verified = true;
    for (const Row& r : rows) {
        all_verified = all_verified && r.verified;
    }
    if (!all_verified) {
        std::fprintf(stderr, "\nFAILED: some rows did not verify\n");
        return 1;
    }
    return 0;
}
