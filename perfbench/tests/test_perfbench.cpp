// Self-tests of the benchmark's own code: the seeded generators, the
// logical-bytes base of rt.copy_ratio, the percentile convention and the
// span self-time reduction.
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>

namespace {

using namespace perfbench;
using hcube::svc::Family;
using hcube::svc::Op;

/// A population's shape: how many signatures of each (op, family, n).
std::map<std::tuple<Op, Family, int>, int> shape(const Generated& g) {
    std::map<std::tuple<Op, Family, int>, int> out;
    for (const Signature& s : g.population) {
        ++out[{s.op, s.family, static_cast<int>(s.n)}];
    }
    return out;
}

TEST(PerfbenchGenerator, SameSeedSameRequests) {
    for (const Workload w : kAllWorkloads) {
        const Generated a = generate(w, 42);
        const Generated b = generate(w, 42);
        EXPECT_EQ(a.population, b.population) << to_string(w);
        EXPECT_EQ(a.sequence, b.sequence) << to_string(w);
        EXPECT_EQ(a.churn_addr, b.churn_addr) << to_string(w);
    }
}

TEST(PerfbenchGenerator, OtherSeedSameShape) {
    for (const Workload w : kAllWorkloads) {
        const Generated a = generate(w, 1);
        const Generated b = generate(w, 2);
        EXPECT_NE(a.population, b.population) << to_string(w);
        EXPECT_EQ(a.population.size(), b.population.size());
        EXPECT_EQ(shape(a), shape(b)) << to_string(w);
        EXPECT_EQ(a.sequence.size(), kSequenceLength);
        // Rank r keeps its class under every seed.
        for (std::size_t r = 0; r < a.population.size(); ++r) {
            EXPECT_EQ(a.population[r].op, b.population[r].op);
            EXPECT_EQ(a.population[r].n, b.population[r].n);
        }
    }
}

TEST(PerfbenchGenerator, PopulationsAreDistinctAndIndexed) {
    for (const Workload w : kAllWorkloads) {
        const Generated g = generate(w, 7);
        const std::set<Signature> uniq(g.population.begin(),
                                       g.population.end());
        EXPECT_EQ(uniq.size(), g.population.size()) << to_string(w);
        for (const std::uint32_t idx : g.sequence) {
            ASSERT_LT(idx, g.population.size());
        }
    }
}

TEST(PerfbenchGenerator, WireReplaysSteadyHot) {
    const Generated a = generate(Workload::steady_hot, 9);
    const Generated b = generate(Workload::wire_uds, 9);
    EXPECT_EQ(a.population, b.population);
    EXPECT_EQ(a.sequence, b.sequence);
}

TEST(PerfbenchGenerator, ChurnNeverRootsAtTheChurnAddress) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Generated g = generate(Workload::cold_churn, seed);
        EXPECT_GE(g.churn_addr, 128u);
        EXPECT_LT(g.churn_addr, 256u);
        EXPECT_GE(g.population.size(), 2000u);
        for (const Signature& s : g.population) {
            if (s.n == 8) {
                EXPECT_NE(s.root, g.churn_addr);
                EXPECT_EQ(s.family, Family::sbt);
            }
        }
    }
}

TEST(PerfbenchGenerator, ChurnSequenceIsSkewed) {
    const Generated g = generate(Workload::cold_churn, 3);
    std::vector<std::size_t> hits(g.population.size(), 0);
    for (const std::uint32_t idx : g.sequence) {
        ++hits[idx];
    }
    // Zipf: the hottest rank is requested far more than a tail rank.
    EXPECT_GT(hits[0], 20 * std::max<std::size_t>(1, hits.back()));
}

TEST(PerfbenchLogicalBytes, PerOp) {
    Signature s;
    s.n = 3;
    s.packets = 2;
    s.block_elems = 4; // 32 bytes per block
    s.op = Op::broadcast;
    EXPECT_EQ(logical_bytes(s, 8), 7u * 2 * 32);
    s.op = Op::scatter;
    EXPECT_EQ(logical_bytes(s, 8), 7u * 2 * 32);
    s.op = Op::gather;
    EXPECT_EQ(logical_bytes(s, 8), 7u * 2 * 32);
    s.op = Op::reduce;
    EXPECT_EQ(logical_bytes(s, 7), 6u * 2 * 32); // incomplete cube
    s.op = Op::allgather;
    EXPECT_EQ(logical_bytes(s, 8), 8u * 7 * 32); // packets ignored
    s.op = Op::alltoall;
    EXPECT_EQ(logical_bytes(s, 8), 8u * 7 * 2 * 32);
    EXPECT_EQ(logical_bytes(s, 0), 0u);
}

TEST(PerfbenchPercentile, NearestRank) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) {
        v.push_back(i);
    }
    EXPECT_EQ(nearest_rank(v, 50), 50);
    EXPECT_EQ(nearest_rank(v, 99), 99);
    EXPECT_EQ(nearest_rank(v, 100), 100);
    EXPECT_EQ(nearest_rank(v, 0.5), 1);
    EXPECT_EQ(nearest_rank({7.0}, 99), 7);
    EXPECT_EQ(samples_beyond(100, 99), 1u);
    EXPECT_EQ(samples_beyond(1000, 99), 10u);
}

TEST(PerfbenchPercentile, TailNeedsTenBeyond) {
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) {
        v.push_back(i);
    }
    Tail t = tail_percentile(v, 99);
    EXPECT_TRUE(t.met);
    EXPECT_EQ(t.pct, 99);
    EXPECT_EQ(t.value, 990);
    EXPECT_EQ(t.samples, 1000u);

    v.resize(500); // p99 has 5 beyond, p98 has 10
    t = tail_percentile(v, 99);
    EXPECT_TRUE(t.met);
    EXPECT_EQ(t.pct, 98);
    EXPECT_EQ(t.value, 490);

    v.resize(15); // even p50 has only 7 beyond
    t = tail_percentile(v, 99);
    EXPECT_FALSE(t.met);
    EXPECT_EQ(t.pct, 50);
    EXPECT_EQ(t.value, 8);
}

/// A 4 s phase cut into 1 s windows: 1000 requests a second with latencies
/// 1..1000 in seconds 0 and 3, and 500 a second with ten times the latency
/// (10..10000 over the two seconds) in seconds 1 and 2.
std::vector<Timing> four_seconds() {
    std::vector<Timing> t;
    for (int j = 0; j < 1000; ++j) {
        const auto lat = static_cast<float>(j + 1);
        t.push_back({static_cast<float>((j + 0.5) / 1000), lat});
        t.push_back({static_cast<float>(1 + (j + 0.5) / 500), lat * 10});
        t.push_back({static_cast<float>(3 + (j + 0.5) / 1000), lat});
    }
    return t;
}

/// Host readings one second apart whose steal ticks grow by `steal[k]`
/// out of 1000 in second k.
std::vector<HostPoint> host_with(const std::vector<std::uint64_t>& steal) {
    std::vector<HostPoint> host = {{0.0, {0, 0}}};
    for (std::size_t k = 0; k < steal.size(); ++k) {
        const HostTicks prev = host.back().ticks;
        host.push_back({static_cast<double>(k + 1),
                        {prev.steal + steal[k], prev.total + 1000}});
    }
    return host;
}

TEST(PerfbenchPercentile, CutWindowsFilesRequestsByCompletion) {
    const auto w = cut_windows(four_seconds(), host_with({20, 300, 300, 40}),
                               4.0, 1.0);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_EQ(w[0].latency_us.size(), 1000u);
    EXPECT_EQ(w[1].latency_us.size(), 500u);
    EXPECT_EQ(w[2].latency_us.size(), 500u);
    EXPECT_DOUBLE_EQ(w[3].seconds, 1.0);
    EXPECT_NEAR(w[1].steal, 0.30, 1e-9);
    EXPECT_NEAR(w[3].steal, 0.04, 1e-9);

    // The remainder joins the last window; a short phase is one window.
    EXPECT_DOUBLE_EQ(cut_windows({}, {}, 4.0, 1.5).back().seconds, 2.5);
    EXPECT_EQ(cut_windows(four_seconds(), {}, 4.0, 2.5).size(), 1u);
}

TEST(PerfbenchPercentile, WindowedPoolsTheKeptSamples) {
    const Windowed w = windowed(four_seconds(), {}, 4.0, 1.0);
    EXPECT_EQ(w.windows, 4u);
    EXPECT_EQ(w.kept, 4u); // no host readings: every window quiet
    EXPECT_NEAR(w.throughput, 3000.0 / 4.0, 1e-3);
    // Pooled ranks: 1..1000 twice and 10..10000 in steps of 10. The slow
    // windows alone own the top 30 samples, so they set p99.
    EXPECT_EQ(w.p50, 715);
    EXPECT_EQ(w.p99.value, 9700);
    EXPECT_EQ(w.p99.pct, 99);
    EXPECT_TRUE(w.p99.met);
    EXPECT_EQ(w.p99.samples, 3000u);

    // Too few samples for p99: the ladder rule.
    std::vector<Timing> few;
    for (int j = 0; j < 500; ++j) {
        few.push_back({0.5f, static_cast<float>(j + 1)});
    }
    const Windowed f = windowed(few, {}, 1.0, 1.0);
    EXPECT_EQ(f.p99.pct, 98);
    EXPECT_EQ(f.p99.value, 490);
}

TEST(PerfbenchPercentile, WindowedCountsOnlyVerifiedRequests) {
    std::vector<Timing> t = four_seconds();
    for (std::size_t i = 0; i < t.size(); i += 2) {
        t[i].latency_us = std::numeric_limits<float>::infinity();
    }
    const Windowed w = windowed(t, {}, 4.0, 1.0);
    EXPECT_NEAR(w.throughput, 1500.0 / 4.0, 1e-3);
    EXPECT_TRUE(std::isinf(w.p99.value)); // failures sit in the tail
}

TEST(PerfbenchPercentile, QuietCutoffIsTheLeastStolenQuarter) {
    EXPECT_DOUBLE_EQ(quiet_cutoff({}), kQuietSteal);
    EXPECT_DOUBLE_EQ(quiet_cutoff({0.3, 0.05, 0.1, 0.2}), 0.05);
    EXPECT_DOUBLE_EQ(quiet_cutoff({0.01, 0.3}), kQuietSteal);
}

TEST(PerfbenchPercentile, WindowedKeepsTheQuietWindows) {
    // Steal 5%, 30%, 30%, 4%: only the least-stolen quarter is kept.
    const Windowed w =
        windowed(four_seconds(), host_with({50, 300, 300, 40}), 4.0, 1.0);
    EXPECT_EQ(w.windows, 4u);
    EXPECT_EQ(w.kept, 1u);
    EXPECT_NEAR(w.steal_kept, 0.04, 1e-9);
    EXPECT_NEAR(w.steal_all, 0.1725, 1e-9);
    EXPECT_NEAR(w.throughput, 1000.0, 1e-3);
    EXPECT_EQ(w.p99.value, 990);
    EXPECT_EQ(w.p99.samples, 1000u);

    // Every second at most kQuietSteal: all kept, slow ones included.
    const Windowed q =
        windowed(four_seconds(), host_with({10, 20, 0, 15}), 4.0, 1.0);
    EXPECT_EQ(q.kept, 4u);
    EXPECT_EQ(q.p99.value, 9700);

    // Steal 30%, 0%, 0%, 20%: the slow seconds are kept because they are
    // quiet, the fast ones dropped although they are fast.
    const Windowed m =
        windowed(four_seconds(), host_with({300, 0, 0, 200}), 4.0, 1.0);
    EXPECT_EQ(m.kept, 2u);
    EXPECT_NEAR(m.throughput, 500.0, 1e-3);
    EXPECT_EQ(m.p50, 5000);
    EXPECT_EQ(m.p99.value, 9900);
}

TEST(PerfbenchTrace, SelfTimeSubtractsCoveredChildren) {
    std::vector<Span> spans = {
        {"request", -1, 1, 0, 100, false},
        {"svc.submit", 0, 1, 0, 10, false},
        {"svc.wait", 0, 1, 10, 100, false},
        {"rt.play", 2, 1, 60, 100, true},
        {"rt.play", 2, 1, 50, 70, true}, // overlaps its sibling
    };
    const auto self = self_times_us(spans);
    EXPECT_DOUBLE_EQ(self.at("request")[0], 0.0);
    EXPECT_DOUBLE_EQ(self.at("svc.submit")[0], 0.010);
    EXPECT_DOUBLE_EQ(self.at("svc.wait")[0], 0.040); // 90 - union 50
}

TEST(PerfbenchTrace, MergeRebasesParents) {
    const auto epoch = SpanBuffer::Clock::now();
    std::vector<SpanBuffer> bufs(2, SpanBuffer(epoch));
    bufs[0].add({"request", -1, 1, 0, 5, false});
    bufs[1].add({"request", -1, 2, 0, 5, false});
    bufs[1].add({"net.run", 0, 2, 1, 4, false});
    const auto merged = merge(bufs);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[2].parent, 1);
}

} // namespace
