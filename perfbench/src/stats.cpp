#include "stats.hpp"

#include "common/check.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of `pct` among `n` samples, clamped to [1, n].
std::size_t rank_of(std::size_t n, double pct) {
    const double exact = pct / 100.0 * static_cast<double>(n);
    // Guard against 99.0/100*N landing a hair above an integer.
    const auto r = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}

} // namespace

double nearest_rank(const std::vector<double>& sorted, double pct) {
    HCUBE_ENSURE(!sorted.empty());
    return sorted[rank_of(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
    return n == 0 ? 0 : n - rank_of(n, pct);
}

Tail tail_percentile(const std::vector<double>& sorted, double wanted) {
    Tail t;
    t.samples = sorted.size();
    if (sorted.empty()) {
        return t;
    }
    std::vector<double> ladder{wanted};
    for (const double p : kTailLadder) {
        if (p < wanted) {
            ladder.push_back(p);
        }
    }
    for (const double p : ladder) {
        if (samples_beyond(sorted.size(), p) >= kMinBeyond) {
            t.pct = p;
            t.value = nearest_rank(sorted, p);
            t.met = true;
            return t;
        }
    }
    t.pct = 50.0;
    t.value = nearest_rank(sorted, 50.0);
    return t;
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    return nearest_rank(values, 50.0);
}

double steal_share(const HostTicks& a, const HostTicks& b) {
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0;
}

namespace {

/// Host steal between the readings at or before `from` and at or after
/// `to` (the first and last readings when none bracket them).
double steal_between(const std::vector<HostPoint>& host, double from,
                     double to) {
    if (host.size() < 2) {
        return 0;
    }
    std::size_t lo = 0;
    while (lo + 1 < host.size() && host[lo + 1].t_s <= from) {
        ++lo;
    }
    std::size_t hi = lo + 1;
    while (hi + 1 < host.size() && host[hi].t_s < to) {
        ++hi;
    }
    return steal_share(host[lo].ticks, host[hi].ticks);
}

} // namespace

std::vector<Window> cut_windows(const std::vector<Timing>& timings,
                                const std::vector<HostPoint>& host,
                                double phase_s, double window_s) {
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(phase_s / window_s));
    std::vector<Window> windows(count);
    for (std::size_t k = 0; k < count; ++k) {
        const double from = static_cast<double>(k) * window_s;
        const double to =
            k + 1 == count ? phase_s : static_cast<double>(k + 1) * window_s;
        windows[k].seconds = to - from;
        windows[k].steal = steal_between(host, from, to);
    }
    for (const Timing& t : timings) {
        const auto k = std::min(
            count - 1, static_cast<std::size_t>(std::max(0.0, t.done_s /
                                                                  window_s)));
        windows[k].latency_us.push_back(t.latency_us);
    }
    return windows;
}

double quiet_cutoff(std::vector<double> steals) {
    if (steals.empty()) {
        return kQuietSteal;
    }
    std::sort(steals.begin(), steals.end());
    return std::max(kQuietSteal, nearest_rank(steals, kKeepPercentile));
}

Windowed summarize(const std::vector<Window>& windows) {
    Windowed w;
    w.windows = windows.size();
    std::vector<double> steals;
    double total_s = 0;
    for (const Window& win : windows) {
        steals.push_back(win.steal);
        w.steal_all += win.steal * win.seconds;
        total_s += win.seconds;
    }
    w.steal_all = total_s > 0 ? w.steal_all / total_s : 0;
    const double cutoff = quiet_cutoff(steals);
    std::vector<double> lat;
    double kept_s = 0;
    std::size_t verified = 0;
    for (const Window& win : windows) {
        if (win.steal > cutoff) {
            continue;
        }
        ++w.kept;
        w.steal_kept = std::max(w.steal_kept, win.steal);
        kept_s += win.seconds;
        for (const float v : win.latency_us) {
            lat.push_back(v);
            if (std::isfinite(v)) {
                ++verified;
            }
        }
    }
    if (lat.empty()) {
        return w;
    }
    std::sort(lat.begin(), lat.end());
    w.throughput = kept_s > 0 ? static_cast<double>(verified) / kept_s : 0;
    w.p50 = nearest_rank(lat, 50);
    w.p99 = tail_percentile(lat, 99);
    return w;
}

Windowed windowed(const std::vector<Timing>& timings,
                  const std::vector<HostPoint>& host, double phase_s,
                  double window_s) {
    return summarize(cut_windows(timings, host, phase_s, window_s));
}

} // namespace perfbench
