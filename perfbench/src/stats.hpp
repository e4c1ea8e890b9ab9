// Summary statistics with the benchmark's conventions.
//
// Percentiles are nearest rank: the p-th percentile of N sorted samples is
// the sample at 1-based rank ceil(p/100 * N). A tail percentile is only
// reported when at least kMinBeyond samples lie strictly above its rank;
// otherwise the highest percentile on kTailLadder that meets the rule is
// reported instead, with the sample count either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Percentiles tried, in order, when the requested one lacks samples.
inline constexpr double kTailLadder[] = {99.9, 99.0, 98.0, 95.0, 90.0,
                                         75.0, 50.0};

/// Nearest-rank percentile of an ascending-sorted, non-empty vector.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted,
                                  double pct);

/// Samples strictly beyond the nearest-rank position of `pct` among `n`.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

struct Tail {
    double pct = 0;     ///< the percentile actually reported
    double value = 0;
    std::size_t samples = 0;
    bool met = false;   ///< `pct` has at least kMinBeyond samples beyond
};

/// The highest percentile <= `wanted` on kTailLadder (`wanted` itself
/// first) with at least kMinBeyond samples beyond it. If none qualifies,
/// the median with met = false.
[[nodiscard]] Tail tail_percentile(const std::vector<double>& sorted,
                                   double wanted);

/// Median of an unsorted sample (copy sorted internally); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// One finished request of a closed-loop phase.
struct Timing {
    float done_s = 0;     ///< completion time since the phase started
    float latency_us = 0; ///< +infinity when the request failed
};

/// Aggregate CPU time of the host, in ticks (/proc/stat's "cpu" line).
struct HostTicks {
    std::uint64_t steal = 0; ///< time the hypervisor ran another guest
    std::uint64_t total = 0;
};

/// Share of the host's CPU time stolen between two readings.
[[nodiscard]] double steal_share(const HostTicks& a, const HostTicks& b);

/// A HostTicks reading taken `t_s` seconds into a phase.
struct HostPoint {
    double t_s = 0;
    HostTicks ticks;
};

/// Length of one window of a closed-loop phase, in seconds.
inline constexpr double kWindowSeconds = 0.5;

/// Host steal at or below which a window always counts as quiet.
inline constexpr double kQuietSteal = 0.02;

/// Percentile of the windows' steal at or below which a window is kept
/// when fewer windows than that are quiet: the least-stolen quarter.
inline constexpr double kKeepPercentile = 25;

/// The steal at or below which a measurement (a window, a set-up) counts
/// as quiet among measurements with these `steals`: kQuietSteal, or the
/// kKeepPercentile-th percentile of `steals` when that is higher.
[[nodiscard]] double quiet_cutoff(std::vector<double> steals);

/// One stretch of a closed-loop phase: how long it lasted, the share of
/// the host's CPU other guests stole during it, and the latencies of the
/// requests that completed in it (+infinity for a failed request).
struct Window {
    double seconds = 0;
    double steal = 0;
    std::vector<float> latency_us;
};

/// Cuts a phase of `phase_s` seconds into consecutive windows of
/// `window_s` (the remainder joins the last window; a phase shorter than
/// two windows is one window) and files each request under the window its
/// completion fell in. A window's steal comes from the `host` readings
/// bracketing it (0 without readings).
[[nodiscard]] std::vector<Window> cut_windows(
    const std::vector<Timing>& timings, const std::vector<HostPoint>& host,
    double phase_s, double window_s = kWindowSeconds);

struct Windowed {
    double throughput = 0; ///< verified requests / time, over kept windows
    double p50 = 0;        ///< nearest-rank p50 of the kept samples
    Tail p99;              ///< tail_percentile() of the kept samples
    std::size_t windows = 0;
    std::size_t kept = 0;     ///< windows the figures are taken over
    double steal_all = 0;     ///< host steal over all the windows
    double steal_kept = 0;    ///< highest steal among the kept windows
};

/// Keeps the windows in which the host stole little CPU (quiet_cutoff()),
/// so interference from other guests on a shared host drops out, while a
/// slowdown of the program shows in every window. Throughput is the kept
/// windows' verified (finite-latency) requests over their summed length;
/// p50 and p99 are taken over all the kept windows' samples pooled, so one
/// slow kept window raises the tail.
[[nodiscard]] Windowed summarize(const std::vector<Window>& windows);

/// summarize(cut_windows(...)).
[[nodiscard]] Windowed windowed(const std::vector<Timing>& timings,
                                const std::vector<HostPoint>& host,
                                double phase_s,
                                double window_s = kWindowSeconds);

} // namespace perfbench
