// hcbench — closed-loop benchmark of the collective service.
//
//   hcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--git-sha <sha>] [--out-dir <dir>]
//
// Drives one workload's seeded request stream into the stack through its
// public entry points only — svc::Service::submit in-process, or
// net::NetClient::run against an in-process net::Netd on a Unix-domain
// socket — from `clients` closed-loop threads, each of which sends its next
// request only when the previous reply arrived. Every reply is checked
// (status ok, verified bit, delivered-block count or member count); any
// failure makes the run exit 1.
//
// --trace 0 prints the end-to-end metrics, measured over kRepetitions
// fresh processes (--segment, internal) that each set up and carry an equal
// segment of the load; --trace 1 runs the workload untraced and traced in
// this process, records spans around every call into a module's public
// API, replays the layers the service calls internally on the workload's
// own signatures, and prints the per-layer metrics plus the tracing
// overhead. The last stdout line is the JSON result; the lines before it
// are the environment stamp and a readable report. See perfbench/README.md
// for the metric catalog.
#include "env.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

#include "net/netd.hpp"
#include "net/protocol.hpp"
#include "rt/plan.hpp"
#include "sim/cycle.hpp"
#include "svc/service.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
namespace svc = hcube::svc;
namespace net = hcube::net;

/// Repetitions per run, each a fresh process that sets up and carries an
/// equal segment of the load (setup_s is the median of the quiet set-ups).
constexpr std::size_t kRepetitions = 9;

double since_s(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Options {
    Workload workload = Workload::steady_hot;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string git_sha = "unknown";
    std::string out_dir = ".bench_out";
    /// >= 0: run repetition `segment` (one set-up, then --seconds of load,
    /// none when 0), print what it measured and exit.
    int segment = -1;
    std::string self; ///< argv[0], re-run for each repetition
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "hcbench: %s\nusage: hcbench --workload "
                 "steady_hot|bulk_combine|cold_churn|wire_uds --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    o.self = argv[0];
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const auto w = parse_workload(value);
                if (!w) {
                    usage(("unknown workload " + value).c_str());
                }
                o.workload = *w;
                have_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value);
            } else if (flag == "--trace") {
                o.trace = value == "1";
            } else if (flag == "--git-sha") {
                o.git_sha = value;
            } else if (flag == "--out-dir") {
                o.out_dir = value;
            } else if (flag == "--segment") {
                o.segment = std::stoi(value);
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!have_workload || !(o.seconds > 0 || o.segment >= 0)) {
        usage("--workload and a positive --seconds are required");
    }
    return o;
}

// ---- the system under test ---------------------------------------------

/// One reply, reduced to what the benchmark checks and measures.
struct Reply {
    bool ok = false;       ///< Status::ok and the verified bit
    bool batched = false;
    bool oracle = false;
    bool cache_hit = false;
    double play_s = 0;
    double submit_s = 0;   ///< in-process only: time inside submit()
    std::uint64_t bytes_copied = 0;
    std::uint64_t blocks = 0;
    std::uint64_t members = 0;
    std::uint64_t plan_bytes = 0; ///< in-process only
    hcube::rt::ExecMode mode = hcube::rt::ExecMode::barrier;
};

/// The service (in-process) or netd plus one client connection per
/// closed-loop client (wire), built exactly as a user would.
class Target {
  public:
    Target(const Spec& spec, const std::string& socket_path,
           double& construct_s, double& connect_s) {
        const auto t0 = Clock::now();
        if (spec.wire) {
            net::NetdParams p;
            p.endpoint = net::Endpoint::unix_path(socket_path);
            netd_ = std::make_unique<net::Netd>(spec.n, p);
        } else {
            service_ = std::make_unique<svc::Service>(spec.n);
        }
        const auto t1 = Clock::now();
        if (spec.wire) {
            for (std::uint32_t c = 0; c < spec.clients; ++c) {
                clients_.push_back(
                    std::make_unique<net::NetClient>(netd_->endpoint()));
            }
        }
        construct_s = since_s(t0, t1);
        connect_s = since_s(t1, Clock::now());
    }

    [[nodiscard]] svc::Service& service() {
        return netd_ ? netd_->service() : *service_;
    }
    [[nodiscard]] bool wire() const { return netd_ != nullptr; }
    [[nodiscard]] net::NetClient& client(std::size_t c) {
        return *clients_[c];
    }

    /// One request from client `c`. `trace`, when set, receives the
    /// request's spans.
    Reply call(std::size_t c, const Signature& sig, std::uint64_t request,
               SpanBuffer* trace) {
        Reply r;
        std::int64_t root = -1;
        if (trace != nullptr) {
            root = trace->open("request", -1, request);
        }
        if (netd_) {
            const std::int64_t s =
                trace ? trace->open("net.run", root, request) : -1;
            const net::OpResponseMsg m = clients_[c]->run(sig);
            if (trace) {
                trace->close(s);
                add_play(*trace, s, request, m.seconds);
            }
            r.ok = m.status == static_cast<std::uint8_t>(svc::Status::ok) &&
                   m.verified;
            r.batched = m.batched;
            r.oracle = m.oracle_checked;
            r.cache_hit = m.cache_hit;
            r.play_s = m.seconds;
            r.members = std::uint64_t{1} << sig.n;
            r.blocks = m.blocks_delivered;
        } else {
            const auto t0 = Clock::now();
            const std::int64_t s =
                trace ? trace->open("svc.submit", root, request) : -1;
            std::future<svc::Response> fut = service_->submit(
                svc::Request{sig, static_cast<std::uint32_t>(c + 1)});
            r.submit_s = since_s(t0, Clock::now());
            std::int64_t w = -1;
            if (trace) {
                trace->close(s);
                w = trace->open("svc.wait", root, request);
            }
            const svc::Response resp = fut.get();
            if (trace) {
                trace->close(w);
                add_play(*trace, w, request, resp.stats.seconds);
            }
            r.ok = resp.status == svc::Status::ok && resp.stats.verified;
            r.batched = resp.batched;
            r.oracle = resp.stats.oracle_checked;
            r.cache_hit = resp.stats.cache_hit;
            r.play_s = resp.stats.seconds;
            r.bytes_copied = resp.stats.bytes_copied;
            r.members = resp.stats.member_count;
            r.mode = resp.stats.exec_mode;
            r.blocks = resp.stats.blocks_delivered;
            r.plan_bytes = resp.stats.plan_resident_bytes;
        }
        if (trace) {
            trace->close(root);
        }
        return r;
    }

  private:
    /// play() ran inside `parent` for `seconds`; where is not reported, so
    /// the span is placed at the parent's end.
    static void add_play(SpanBuffer& trace, std::int64_t parent,
                         std::uint64_t request, double seconds) {
        const Span& p = trace.at(parent);
        const auto dur = std::min<std::int64_t>(
            static_cast<std::int64_t>(seconds * 1e9), p.end_ns - p.start_ns);
        trace.add(Span{"rt.play", parent, request, p.end_ns - dur, p.end_ns,
                       true});
    }

    std::unique_ptr<svc::Service> service_;
    std::unique_ptr<net::Netd> netd_;
    std::vector<std::unique_ptr<net::NetClient>> clients_;
};

// ---- workload state shared by set-up and the load ----------------------

struct Bench {
    Options opt;
    Spec spec;
    Generated gen;
    /// Expected delivered blocks per population index on the full cube
    /// (0 = not precomputed; the member count is checked instead).
    std::vector<std::uint64_t> expected_blocks;
    std::string socket_path;
};

/// A reply is correct when the service verified it and its delivered-block
/// count (or, where not precomputed, member count) matches the collective.
bool check(const Bench& b, const Signature& sig, std::uint32_t idx,
           const Reply& r, bool churn_possible) {
    if (!r.ok) {
        return false;
    }
    if (b.expected_blocks[idx] != 0 &&
        r.blocks != b.expected_blocks[idx]) {
        return false;
    }
    const std::uint64_t full = std::uint64_t{1} << sig.n;
    return r.members == full ||
           (churn_possible && sig.n == b.spec.n && r.members == full - 1);
}

struct Setup {
    std::unique_ptr<Target> target;
    double setup_s = 0;
    double construct_s = 0;
    double connect_s = 0;
    double steal = 0; ///< host steal while it ran
    std::uint64_t warm_failures = 0;
};

/// Preflights every generated signature against every view the workload
/// passes through (the full cube and, under churn, the cube without the
/// churn address). Returns the first refused signature's description.
std::optional<std::string> preflight_all(const Bench& b, svc::Session& s) {
    const auto sweep = [&]() -> std::optional<std::string> {
        for (const Signature& sig : b.gen.population) {
            if (const auto rej = s.preflight(sig)) {
                return sig.to_string() + ": " + rej->detail;
            }
        }
        return std::nullopt;
    };
    if (auto bad = sweep()) {
        return bad;
    }
    if (b.spec.churn_every != 0) {
        (void)s.leave(b.gen.churn_addr);
        auto bad = sweep();
        (void)s.join(b.gen.churn_addr);
        if (bad) {
            return "(churn address out) " + *bad;
        }
    }
    return std::nullopt;
}

/// Constructs the target, connects the clients and makes one warm pass
/// over the resident signatures; the preflight sweep runs in between and
/// is not part of the set-up time.
Setup set_up(const Bench& b) {
    Setup s;
    s.target = std::make_unique<Target>(b.spec, b.socket_path, s.construct_s,
                                        s.connect_s);
    if (const auto bad = preflight_all(b, s.target->service().session())) {
        std::fprintf(stderr, "hcbench: generator emitted a refused "
                             "signature: %s\n",
                     bad->c_str());
        std::exit(3);
    }
    const auto t0 = Clock::now();
    const std::size_t resident =
        b.spec.resident == 0
            ? b.gen.population.size()
            : std::min(b.spec.resident, b.gen.population.size());
    for (std::uint32_t i = 0; i < resident; ++i) {
        const Reply r = s.target->call(0, b.gen.population[i], 0, nullptr);
        if (!check(b, b.gen.population[i], i, r, false)) {
            ++s.warm_failures;
        }
    }
    s.setup_s = s.construct_s + s.connect_s + since_s(t0, Clock::now());
    return s;
}

/// What one repetition measured in its own process.
struct Repetition {
    Setup setup; ///< timings only; the target lived in the child
    std::vector<Window> windows;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double peak_rss_mb = 0;
    /// 0 when the process ran and reported; else its exit code (3 for a
    /// refused signature), or 1.
    int exit_code = 1;
};

/// Runs repetition `segment` in a fresh process (this binary re-run with
/// --segment) carrying `seconds` of load, and reads back what it printed.
Repetition run_fresh_process(const Bench& b, std::size_t segment,
                             double seconds) {
    Repetition r;
    int fds[2];
    if (::pipe(fds) != 0) {
        return r;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.17g", seconds);
    std::vector<std::string> args = {
        b.opt.self,  "--workload", std::string(to_string(b.opt.workload)),
        "--seed",    std::to_string(b.opt.seed),
        "--seconds", secs,
        "--trace",   "0",
        "--out-dir", b.opt.out_dir,
        "--segment", std::to_string(segment)};
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int spawned = ::posix_spawn(&pid, b.opt.self.c_str(), &actions,
                                      nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::FILE* in = ::fdopen(fds[0], "r");
    if (in == nullptr) {
        ::close(fds[0]);
    }
    unsigned long long warm = 0, attempted = 0, failed = 0;
    std::size_t windows = 0;
    bool ok = spawned == 0 && in != nullptr &&
              std::fscanf(in, "setup %lf %lf %lf %lf %llu", &r.setup.setup_s,
                          &r.setup.construct_s, &r.setup.connect_s,
                          &r.setup.steal, &warm) == 5 &&
              std::fscanf(in, " load %llu %llu %lf %zu", &attempted, &failed,
                          &r.peak_rss_mb, &windows) == 4;
    for (std::size_t k = 0; ok && k < windows; ++k) {
        Window w;
        std::size_t count = 0;
        ok = std::fscanf(in, " window %lf %lf %zu", &w.seconds, &w.steal,
                         &count) == 3;
        w.latency_us.resize(ok ? count : 0);
        for (float& v : w.latency_us) {
            ok = ok && std::fscanf(in, " %f", &v) == 1;
        }
        r.windows.push_back(std::move(w));
    }
    if (in != nullptr) {
        std::fclose(in);
    }
    int status = 0;
    const bool exited = spawned == 0 &&
                        ::waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status);
    r.setup.warm_failures = warm;
    r.attempted = attempted;
    r.failed = failed;
    r.exit_code = !exited                    ? 1
                  : WEXITSTATUS(status) != 0 ? WEXITSTATUS(status)
                  : ok                       ? 0
                                             : 1;
    return r;
}

// ---- the closed loop ---------------------------------------------------

/// One request of a traced phase, with everything its reply reported.
struct Detail {
    std::uint32_t idx = 0;
    double latency_us = 0;
    bool correct = false;
    Reply reply;
};

/// Where the closed loop stands between phases: the next index into the
/// request sequence and whether the churn address is out of the view.
struct Cursor {
    std::uint64_t next = 0;
    bool churned_out = false;
};

struct Phase {
    Clock::time_point epoch; ///< zero of every span timestamp
    std::vector<Timing> timings;
    std::vector<Detail> details; ///< traced phases only
    double elapsed_s = 0;
    std::vector<HostPoint> host; ///< host CPU ticks every 100 ms
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> transition_us;
    std::vector<SpanBuffer> spans;
};

/// Runs the closed loop for `seconds`: every client draws the next index
/// of the workload's fixed sequence, churns membership when the index is
/// a multiple of churn_every, sends the request and waits for the reply.
/// The phase continues the sequence (and the churn state) from `cur` and
/// leaves it where it stopped. Span times count from `epoch`.
Phase run_phase(const Bench& b, Target& t, double seconds, bool traced,
                Cursor& cur, Clock::time_point epoch = Clock::now()) {
    const std::uint32_t clients = b.spec.clients;
    Phase ph;
    ph.epoch = epoch;
    ph.spans.assign(clients, SpanBuffer(ph.epoch));
    std::vector<std::vector<Timing>> timings(clients);
    std::vector<std::vector<Detail>> details(clients);
    std::vector<std::vector<double>> trans(clients);
    std::vector<std::uint64_t> attempted(clients, 0);
    std::vector<std::uint64_t> failed(clients, 0);
    std::vector<double> finish(clients, 0);
    std::atomic<std::uint64_t> cursor{cur.next};
    std::atomic<std::uint32_t> ready{0};
    std::atomic<bool> go{false};
    std::mutex churn_mutex;
    bool churned_out = cur.churned_out; // guarded by churn_mutex
    Clock::time_point start;
    Clock::time_point deadline;

    const auto client = [&](std::uint32_t c) {
        timings[c].reserve(1 << 15);
        SpanBuffer* trace = traced ? &ph.spans[c] : nullptr;
        if (traced) {
            details[c].reserve(1 << 15);
            trace->reserve(1 << 17);
        }
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
        while (Clock::now() < deadline) {
            const std::uint64_t i = cursor.fetch_add(1);
            const std::uint32_t idx = b.gen.sequence[i % kSequenceLength];
            if (b.spec.churn_every != 0 && i % b.spec.churn_every == 0 &&
                i > 0) {
                const std::lock_guard<std::mutex> lock(churn_mutex);
                const std::int64_t s =
                    trace ? trace->open("mbr.transition", -1, i) : -1;
                const auto t0 = Clock::now();
                svc::Session& session = t.service().session();
                if (churned_out) {
                    (void)session.join(b.gen.churn_addr);
                } else {
                    (void)session.leave(b.gen.churn_addr);
                }
                churned_out = !churned_out;
                trans[c].push_back(since_s(t0, Clock::now()) * 1e6);
                if (trace) {
                    trace->close(s);
                }
            }
            const Signature& sig = b.gen.population[idx];
            Detail d;
            d.idx = idx;
            ++attempted[c];
            const auto t0 = Clock::now();
            try {
                d.reply = t.call(c, sig, i, trace);
                d.correct = check(b, sig, idx, d.reply,
                                  b.spec.churn_every != 0);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "hcbench: request %llu threw: %s\n",
                             static_cast<unsigned long long>(i), e.what());
            }
            const auto t1 = Clock::now();
            d.latency_us = since_s(t0, t1) * 1e6;
            if (!d.correct) {
                ++failed[c];
            }
            timings[c].push_back(
                {static_cast<float>(since_s(start, t1)),
                 d.correct ? static_cast<float>(d.latency_us)
                           : std::numeric_limits<float>::infinity()});
            if (traced) {
                details[c].push_back(d);
            }
        }
        finish[c] = since_s(start, Clock::now());
    };

    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c) {
        threads.emplace_back(client, c);
    }
    while (ready.load() < clients) {
        std::this_thread::yield();
    }
    const HostTicks h0 = host_ticks();
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    // The main thread reads the host's steal counters while clients run.
    ph.host.push_back({0, h0});
    while (Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ph.host.push_back({since_s(start, Clock::now()), host_ticks()});
    }
    for (std::thread& th : threads) {
        th.join();
    }
    ph.host.push_back({since_s(start, Clock::now()), host_ticks()});
    ph.elapsed_s = *std::max_element(finish.begin(), finish.end());
    cur.next = cursor.load();
    cur.churned_out = churned_out;
    for (std::uint32_t c = 0; c < clients; ++c) {
        ph.timings.insert(ph.timings.end(), timings[c].begin(),
                          timings[c].end());
        ph.details.insert(ph.details.end(), details[c].begin(),
                          details[c].end());
        ph.transition_us.insert(ph.transition_us.end(), trans[c].begin(),
                                trans[c].end());
        ph.attempted += attempted[c];
        ph.failed += failed[c];
    }
    return ph;
}

// ---- reporting -----------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& ms) {
    std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
    for (const Metric& m : ms) {
        std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        // JSON has no infinity: a latency that only failures reached
        // prints as -1 (and the run is already marked incorrect).
        const double v = std::isfinite(ms[i].value) ? ms[i].value : -1.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), v,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

std::vector<Metric> end_to_end(const std::vector<Window>& windows,
                               std::uint64_t attempted, std::uint64_t failed,
                               const std::vector<double>& setups,
                               double rss_mb) {
    const Windowed w = summarize(windows);
    double seconds = 0;
    for (const Window& win : windows) {
        seconds += win.seconds;
    }
    const double failed_share =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 1.0;
    std::printf("load: %.2f s, %llu requests in %zu windows; host steal "
                "%.1f%% overall, at most %.1f%% in the %zu windows kept\n",
                seconds, static_cast<unsigned long long>(attempted),
                w.windows, 100 * w.steal_all, 100 * w.steal_kept, w.kept);
    std::printf("latency_p99_us: p%g of the %zu samples in the kept "
                "windows%s\n",
                w.p99.pct, w.p99.samples,
                w.p99.met ? ""
                          : "; no percentile had 10 samples beyond: p50");
    std::printf("failed_share: %.6g ratio (%llu of %llu attempted failed, "
                "were rejected or came back unverified)\n",
                failed_share, static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    return {
        {"setup_s", median(setups), "s"},
        {"throughput_ops_s", w.throughput, "ops/s"},
        {"latency_p50_us", w.p50, "us"},
        {"latency_p99_us", w.p99.value, "us"},
        {"verified_share", 1.0 - failed_share, "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
}

// ---- traced run: layer replays -------------------------------------------

struct Replay {
    std::vector<double> schedule_us, validate_us, compile_us, plan_kb;
    double sends_per_op = 0;
};

/// Re-runs, from outside the service, the layer calls Session::execute
/// makes on a plan-cache miss — svc::make_schedule, sim::execute_schedule
/// on the feasibility schedule, rt::compile_plan — on the workload's
/// missed signatures (the resident set when nothing missed), each under a
/// span of its own. Bounded to ~2 s and 64 signatures.
Replay replay_layers(const Bench& b, Target& t, const Phase& ph,
                     SpanBuffer& trace) {
    std::map<std::uint32_t, std::uint64_t> missed; // idx -> requests
    std::map<std::uint32_t, std::uint64_t> requested;
    for (const Detail& d : ph.details) {
        ++requested[d.idx];
        if (!d.reply.cache_hit && !d.reply.batched) {
            ++missed[d.idx];
        }
    }
    if (missed.empty()) {
        missed = requested;
    }
    svc::Session& session = t.service().session();
    const hcube::mbr::View view = session.view();
    Replay out;
    double sends_weighted = 0;
    double weight = 0;
    const auto t_end = Clock::now() + std::chrono::seconds(2);
    std::size_t done = 0;
    for (const auto& [idx, count] : missed) {
        if (done++ == 64 || Clock::now() >= t_end) {
            break;
        }
        const Signature& sig = b.gen.population[idx];
        const hcube::mbr::View sub = view.restricted(sig.n);
        const std::int64_t root = trace.open("replay", -1, idx);
        auto t0 = Clock::now();
        std::int64_t s = trace.open("routing.make_schedule", root, idx);
        const svc::GeneratedSchedule gen = svc::make_schedule(sig, sub);
        trace.close(s);
        auto t1 = Clock::now();
        out.schedule_us.push_back(since_s(t0, t1) * 1e6);
        s = trace.open("sim.execute_schedule", root, idx);
        (void)hcube::sim::execute_schedule(gen.feasibility, sig.model);
        trace.close(s);
        t0 = Clock::now();
        out.validate_us.push_back(since_s(t1, t0) * 1e6);
        const std::vector<node_t> members =
            sub.full() ? std::vector<node_t>{} : sub.members();
        s = trace.open("rt.compile_plan", root, idx);
        const hcube::rt::Plan plan = hcube::rt::compile_plan(
            gen.exec, gen.mode, sig.block_elems,
            std::min<std::uint32_t>(session.threads(), sub.count()), 8,
            hcube::rt::PlanLayout::automatic, members);
        trace.close(s);
        t1 = Clock::now();
        trace.close(root);
        out.compile_us.push_back(since_s(t0, t1) * 1e6);
        out.plan_kb.push_back(static_cast<double>(plan.resident_bytes()) /
                              1024.0);
        sends_weighted += static_cast<double>(gen.exec.sends.size()) *
                          static_cast<double>(count);
        weight += static_cast<double>(count);
    }
    out.sends_per_op = weight > 0 ? sends_weighted / weight : 0;
    return out;
}

/// Median per-request time of the service-plane codec over the requests
/// the traced phase sent: encode/decode of OP_REQUEST and OP_RESPONSE.
double codec_us(const Bench& b, const Phase& ph, SpanBuffer& trace) {
    std::vector<double> us;
    std::vector<std::uint8_t> buf;
    const std::size_t n = std::min<std::size_t>(ph.details.size(), 4096);
    for (std::size_t k = 0; k < n; ++k) {
        const Detail& d = ph.details[k];
        const std::int64_t s = trace.open("net.codec", -1, k);
        const auto t0 = Clock::now();
        const net::OpRequestMsg req{static_cast<std::uint32_t>(k),
                                    b.gen.population[d.idx]};
        buf.clear();
        net::encode_op_request(buf, req);
        net::OpRequestMsg req2;
        bool ok = net::decode_op_request(buf, req2);
        net::OpResponseMsg resp;
        resp.req_id = req.req_id;
        resp.verified = d.reply.ok;
        resp.batched = d.reply.batched;
        resp.seconds = d.reply.play_s;
        buf.clear();
        net::encode_op_response(buf, resp);
        net::OpResponseMsg resp2;
        ok = ok && net::decode_op_response(buf, resp2);
        us.push_back(since_s(t0, Clock::now()) * 1e6);
        trace.close(s);
        if (!ok || !(req2.sig == req.sig)) {
            std::fprintf(stderr, "hcbench: codec round trip failed\n");
            std::exit(1);
        }
    }
    return median(us);
}

std::uint64_t frame_bytes(net::NetClient& c) {
    const hcube::obs::RegistrySnapshot snap = c.scrape();
    return snap.counter("net.frame_bytes_in") +
           snap.counter("net.frame_bytes_out");
}

double share(std::uint64_t num, std::uint64_t den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

/// Appends traced phase `b`'s requests, transitions and spans to `a`
/// (spans keep their shared epoch).
void splice(Phase& a, Phase&& b) {
    a.details.insert(a.details.end(), b.details.begin(), b.details.end());
    a.transition_us.insert(a.transition_us.end(), b.transition_us.begin(),
                           b.transition_us.end());
    for (SpanBuffer& buf : b.spans) {
        a.spans.push_back(std::move(buf));
    }
    a.attempted += b.attempted;
    a.failed += b.failed;
}

/// The traced run: four phases of a quarter of the run each, untraced,
/// traced, traced, untraced (so a drift over the run biases neither
/// side), then the layer replays. Prints the per-layer metrics.
int traced_run(Bench& b, Setup& su, const std::vector<Setup>& reps) {
    Target& t = *su.target;
    svc::Session& session = t.service().session();
    const bool wire = t.wire();
    const double quarter = b.opt.seconds / 4;
    const auto epoch = Clock::now();
    Cursor cur;

    Phase plain = run_phase(b, t, quarter, false, cur, epoch);
    const Windowed untraced_a =
        windowed(plain.timings, plain.host, plain.elapsed_s);
    const hcube::CacheStats c0 = session.cache_stats();
    const std::uint64_t ep0 = session.epoch_evictions();
    const std::uint64_t fb0 = wire ? frame_bytes(t.client(0)) : 0;
    Phase ph = run_phase(b, t, quarter, true, cur, epoch);
    const Windowed traced_a = windowed(ph.timings, ph.host, ph.elapsed_s);
    Phase ph2 = run_phase(b, t, quarter, true, cur, epoch);
    const Windowed traced_b = windowed(ph2.timings, ph2.host, ph2.elapsed_s);
    splice(ph, std::move(ph2));
    const std::uint64_t fb1 = wire ? frame_bytes(t.client(0)) : 0;
    const hcube::CacheStats c1 = session.cache_stats();
    const std::uint64_t ep1 = session.epoch_evictions();
    Phase plain2 = run_phase(b, t, quarter, false, cur, epoch);
    const Windowed untraced_b =
        windowed(plain2.timings, plain2.host, plain2.elapsed_s);
    splice(plain, std::move(plain2));

    ph.spans.emplace_back(epoch); // replay and codec spans
    SpanBuffer& extra = ph.spans.back();
    const Replay rp = replay_layers(b, t, ph, extra);
    const double codec = codec_us(b, ph, extra);

    std::vector<double> overhead, play, submit;
    std::uint64_t completed = 0, batched = 0, executed = 0, oracle = 0,
                  serial = 0, copied = 0, logical = 0;
    // What the plan cache holds, in bytes: the default entry-count cache
    // reports entries (cache_resident_bytes() is a count there), so the
    // bytes are summed over the most recently executed cached_plans()
    // distinct signatures, each at the plan_resident_bytes its latest
    // execution reported.
    std::map<std::uint32_t, std::uint64_t> last_seen, plan_bytes;
    std::uint64_t order = 0;
    for (const Detail& d : ph.details) {
        if (!d.correct) {
            continue;
        }
        ++completed;
        overhead.push_back(d.latency_us - d.reply.play_s * 1e6);
        play.push_back(d.reply.play_s * 1e6);
        submit.push_back(d.reply.submit_s * 1e6);
        batched += d.reply.batched ? 1 : 0;
        if (!d.reply.batched) {
            ++executed;
            oracle += d.reply.oracle ? 1 : 0;
            serial += d.reply.mode == hcube::rt::ExecMode::serial ? 1 : 0;
        }
        copied += d.reply.bytes_copied;
        logical += logical_bytes(b.gen.population[d.idx], d.reply.members);
        last_seen[d.idx] = ++order;
        plan_bytes[d.idx] = d.reply.plan_bytes;
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> recency;
    for (const auto& [idx, when] : last_seen) {
        recency.emplace_back(when, idx);
    }
    std::sort(recency.rbegin(), recency.rend());
    recency.resize(std::min(recency.size(), session.cached_plans()));
    double resident_mb = 0;
    for (const auto& [when, idx] : recency) {
        resident_mb += static_cast<double>(plan_bytes[idx]) / (1 << 20);
    }
    std::sort(play.begin(), play.end());

    // Without churn in the load, membership transitions are replayed after
    // it: the lowest top-dimension address leaves and rejoins four times
    // (the first leave evicts every resident plan of the full cube).
    std::vector<double> transition_us = ph.transition_us;
    std::uint64_t epoch_evicted = ep1 - ep0;
    if (b.spec.churn_every == 0) {
        const node_t addr = node_t{1} << (b.spec.n - 1);
        const std::uint64_t before = session.epoch_evictions();
        for (std::uint64_t k = 0; k < 8; ++k) {
            const std::int64_t s = extra.open("mbr.transition", -1, k);
            const auto t0 = Clock::now();
            (void)(k % 2 == 0 ? session.leave(addr) : session.join(addr));
            transition_us.push_back(since_s(t0, Clock::now()) * 1e6);
            extra.close(s);
        }
        epoch_evicted = session.epoch_evictions() - before;
    }

    const std::vector<Span> merged = merge(ph.spans);
    const auto self = self_times_us(merged);
    double request_total = 0;
    for (const Span& s : merged) {
        if (std::strcmp(s.name, "request") == 0) {
            request_total += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        }
    }
    // Share of all client-observed request time spent in a span's own
    // (self) time; the five request-path shares add up to 1.
    const auto budget = [&](const char* name) {
        const auto it = self.find(name);
        double total = 0;
        if (it != self.end()) {
            for (const double v : it->second) {
                total += v;
            }
        }
        return request_total > 0 ? total / request_total : 0;
    };

    const double untraced_tput =
        (untraced_a.throughput + untraced_b.throughput) / 2;
    const double traced_tput = (traced_a.throughput + traced_b.throughput) / 2;
    std::vector<double> construct, connect;
    for (const Setup& r : reps) {
        construct.push_back(r.construct_s * 1e3);
        connect.push_back(r.connect_s * 1e3);
    }
    const std::uint64_t lookups =
        (c1.hits - c0.hits) + (c1.misses - c0.misses);
    const double over_p50 = median(overhead);

    const std::vector<Metric> ms = {
        {"svc.construct_ms", median(construct), "ms"},
        {"svc.submit_us", wire ? 0 : median(submit), "us"},
        {"svc.overhead_p50_us", wire ? 0 : over_p50, "us"},
        {"svc.batched_share", share(batched, completed), "ratio"},
        {"svc.cache_hit_ratio", share(c1.hits - c0.hits, lookups), "ratio"},
        {"svc.evictions_per_kop",
         1000.0 * share(c1.evictions - c0.evictions, ph.attempted),
         "1/kop"},
        {"svc.oracle_share", share(oracle, executed), "ratio"},
        {"svc.cache_resident_mb", wire ? 0 : resident_mb, "MB"},
        {"rt.play_p50_us", median(play), "us"},
        {"rt.play_p99_us", tail_percentile(play, 99).value, "us"},
        {"rt.serial_share", wire ? 0 : share(serial, executed), "ratio"},
        {"rt.bytes_copied_per_op", wire ? 0 : share(copied, completed), "B"},
        {"rt.copy_ratio", wire ? 0 : share(copied, logical), "ratio"},
        {"rt.compile_us", median(rp.compile_us), "us"},
        {"rt.plan_kb", median(rp.plan_kb), "KiB"},
        {"routing.schedule_us", median(rp.schedule_us), "us"},
        {"routing.sends_per_op", rp.sends_per_op, "count"},
        {"sim.validate_us", median(rp.validate_us), "us"},
        {"mbr.transition_us", median(transition_us), "us"},
        {"mbr.epoch_evictions", static_cast<double>(epoch_evicted), "count"},
        {"net.overhead_p50_us", wire ? over_p50 : 0, "us"},
        {"net.codec_us", codec, "us"},
        {"net.frame_bytes_per_op", wire ? share(fb1 - fb0, ph.attempted) : 0,
         "B"},
        {"net.connect_ms", wire ? median(connect) : 0, "ms"},
        {"budget.client_share", budget("request"), "ratio"},
        {"budget.admission_share", budget("svc.submit"), "ratio"},
        {"budget.service_share", budget("svc.wait"), "ratio"},
        {"budget.wire_share", budget("net.run"), "ratio"},
        {"budget.play_share", budget("rt.play"), "ratio"},
        {"trace.untraced_ops_s", untraced_tput, "ops/s"},
        {"trace.traced_ops_s", traced_tput, "ops/s"},
        {"trace.overhead_share",
         untraced_tput > 0 ? 1.0 - traced_tput / untraced_tput : 0,
         "ratio"},
    };
    std::printf("phases (untraced, traced, traced, untraced): %zu + %zu "
                "untraced and %zu + %zu traced requests in the kept "
                "windows; host steal %.1f%%, "
                "%.1f%%, %.1f%%, %.1f%%\n",
                untraced_a.p99.samples, untraced_b.p99.samples,
                traced_a.p99.samples, traced_b.p99.samples,
                100 * untraced_a.steal_all, 100 * traced_a.steal_all,
                100 * traced_b.steal_all, 100 * untraced_b.steal_all);
    std::printf("not measurable from the public API on this workload "
                "(reported as 0): %s\n",
                wire ? "svc.submit_us, svc.overhead_p50_us (netd calls "
                       "Service::run itself), svc.cache_resident_mb, "
                       "rt.serial_share, rt.bytes_copied_per_op, "
                       "rt.copy_ratio (OpResponseMsg carries no "
                       "exec_mode, bytes_copied or plan_resident_bytes)"
                     : "net.overhead_p50_us, net.frame_bytes_per_op, "
                       "net.connect_ms (no wire on this workload)");
    const std::string path = b.opt.out_dir + "/spans-" +
                             std::string(to_string(b.opt.workload)) + ".json";
    if (write_spans(path, merged)) {
        std::printf("spans: %zu written to %s\n", merged.size(),
                    path.c_str());
    } else {
        std::fprintf(stderr, "hcbench: cannot write %s\n", path.c_str());
    }
    std::uint64_t failed = plain.failed + ph.failed;
    for (const Setup& r : reps) {
        failed += r.warm_failures;
    }
    print_result(failed == 0, plain.attempted + ph.attempted, failed, ms);
    return failed == 0 ? 0 : 1;
}

/// One repetition, in its own process: sets up, carries `--seconds` of
/// load from its own stretch of the request sequence, and prints its
/// set-up, its counts and peak RSS, and its windows for the parent.
int run_segment(const Bench& b) {
    const HostTicks h0 = host_ticks();
    Setup s = set_up(b);
    s.steal = steal_share(h0, host_ticks());
    Phase seg;
    if (b.opt.seconds > 0) {
        Cursor cur;
        cur.next = static_cast<std::uint64_t>(b.opt.segment) *
                   (kSequenceLength / kRepetitions);
        seg = run_phase(b, *s.target, b.opt.seconds, false, cur);
    }
    const std::vector<Window> windows =
        seg.timings.empty()
            ? std::vector<Window>{}
            : cut_windows(seg.timings, seg.host, seg.elapsed_s);
    std::printf("setup %.17g %.17g %.17g %.17g %llu\n", s.setup_s,
                s.construct_s, s.connect_s, s.steal,
                static_cast<unsigned long long>(s.warm_failures));
    std::printf("load %llu %llu %.17g %zu\n",
                static_cast<unsigned long long>(seg.attempted),
                static_cast<unsigned long long>(seg.failed), peak_rss_mb(),
                windows.size());
    for (const Window& w : windows) {
        std::printf("window %.17g %.17g %zu", w.seconds, w.steal,
                    w.latency_us.size());
        for (const float v : w.latency_us) {
            std::printf(" %.9g", static_cast<double>(v));
        }
        std::printf("\n");
    }
    std::fflush(stdout);
    s.target.reset();
    ::unlink(b.socket_path.c_str());
    return 0;
}

/// The timed run: kRepetitions fresh processes, one after the other, each
/// a deployment that sets up and carries an equal segment of the load.
/// Every repetition starts its own service threads, so where the scheduler
/// happens to place them relative to the pinned pool workers, which moves
/// a whole process's throughput by up to a third on the reference host,
/// averages out over the repetitions instead of deciding the run.
int timed_run(const Bench& b) {
    std::vector<Repetition> reps;
    for (std::size_t k = 0; k < kRepetitions; ++k) {
        Repetition r = run_fresh_process(
            b, k, b.opt.seconds / static_cast<double>(kRepetitions));
        if (r.exit_code != 0) {
            std::fprintf(stderr, "hcbench: repetition %zu failed\n", k);
            return r.exit_code;
        }
        reps.push_back(std::move(r));
    }
    std::vector<Window> windows;
    std::vector<double> steals, rss;
    std::uint64_t attempted = 0, failed = 0, warm_failed = 0;
    for (Repetition& r : reps) {
        for (Window& w : r.windows) {
            windows.push_back(std::move(w));
        }
        steals.push_back(r.setup.steal);
        rss.push_back(r.peak_rss_mb);
        attempted += r.attempted;
        failed += r.failed;
        warm_failed += r.setup.warm_failures;
    }
    const double cutoff = quiet_cutoff(steals);
    std::vector<double> setups;
    for (const Repetition& r : reps) {
        if (r.setup.steal <= cutoff) {
            setups.push_back(r.setup.setup_s);
        }
    }
    std::printf("set-up: %zu repetitions, median %.4f s over the %zu with "
                "host steal at most %.1f%%\n",
                reps.size(), median(setups), setups.size(), 100 * cutoff);
    const std::vector<Metric> ms =
        end_to_end(windows, attempted, failed, setups, median(rss));
    failed += warm_failed;
    print_result(failed == 0, attempted, failed, ms);
    return failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    if (const auto bad = hcube_overrides(); !bad.empty()) {
        std::string names;
        for (const std::string& s : bad) {
            names += " " + s;
        }
        std::fprintf(stderr,
                     "hcbench: refusing to run with HCUBE_* overrides set "
                     "(%s ); they select a different program than the one "
                     "the benchmark defines\n",
                     names.c_str());
        return 2;
    }

    Bench b;
    b.opt = opt;
    b.spec = spec_of(opt.workload);
    b.spec.clients = std::min(
        b.spec.clients, std::max(1u, std::thread::hardware_concurrency()));
    b.gen = generate(opt.workload, opt.seed);
    b.expected_blocks.assign(b.gen.population.size(), 0);
    if (b.spec.churn_every == 0) {
        for (std::size_t i = 0; i < b.gen.population.size(); ++i) {
            b.expected_blocks[i] =
                svc::make_schedule(b.gen.population[i]).exec.sends.size();
        }
    }
    ::mkdir(opt.out_dir.c_str(), 0755);
    // Relative, so the socket path stays short and inside the checkout.
    b.socket_path = opt.out_dir + "/netd-" + std::to_string(::getpid()) +
                    ".sock";
    if (opt.segment >= 0) {
        return run_segment(b);
    }
    std::printf("env %s\n", env_stamp_json(opt.git_sha).c_str());
    std::printf("workload %s seed %llu: %zu distinct signatures, %u "
                "clients, n=%u, %s\n",
                std::string(to_string(opt.workload)).c_str(),
                static_cast<unsigned long long>(opt.seed),
                b.gen.population.size(), b.spec.clients,
                static_cast<unsigned>(b.spec.n),
                b.spec.wire ? "NetClient -> Netd over uds"
                            : "Service::submit in-process");
    if (!opt.trace) {
        return timed_run(b);
    }

    // The traced run carries its load in this process, on the first of
    // kRepetitions set-ups; the others run in fresh processes first.
    std::vector<Setup> reps;
    reps.push_back(set_up(b));
    for (std::size_t k = 1; k < kRepetitions; ++k) {
        Repetition r = run_fresh_process(b, k, 0);
        if (r.exit_code != 0) {
            break;
        }
        reps.push_back(std::move(r.setup));
    }
    Setup& su = reps.front();
    int rc = 1;
    if (reps.size() == kRepetitions) {
        rc = traced_run(b, su, reps);
    } else {
        std::fprintf(stderr, "hcbench: a set-up repetition failed\n");
    }
    su.target.reset();
    ::unlink(b.socket_path.c_str());
    return rc;
}
