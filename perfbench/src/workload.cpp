#include "workload.hpp"

#include "common/prng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

using hcube::SplitMix64;
using hcube::svc::Family;
using hcube::svc::Op;

std::string_view to_string(Workload w) noexcept {
    switch (w) {
    case Workload::steady_hot: return "steady_hot";
    case Workload::bulk_combine: return "bulk_combine";
    case Workload::cold_churn: return "cold_churn";
    case Workload::wire_uds: return "wire_uds";
    }
    return "?";
}

std::optional<Workload> parse_workload(std::string_view s) {
    for (const Workload w : kAllWorkloads) {
        if (to_string(w) == s) {
            return w;
        }
    }
    return std::nullopt;
}

Spec spec_of(Workload w) noexcept {
    Spec s;
    switch (w) {
    case Workload::steady_hot:
    case Workload::bulk_combine:
        break;
    case Workload::wire_uds:
        s.wire = true;
        break;
    case Workload::cold_churn:
        s.n = 8;
        s.churn_every = 256;
        // The default plan cache holds 32 entries; warm-up fills it with
        // the 32 hottest signatures.
        s.resident = 32;
        break;
    }
    return s;
}

namespace {

Signature make_sig(Op op, Family family, dim_t n, node_t root,
                   std::uint32_t packets, std::uint32_t block) {
    Signature s;
    s.op = op;
    s.family = family;
    s.n = n;
    s.root = root;
    s.packets = packets;
    s.block_elems = block;
    return s;
}

/// `count` distinct addresses of an n-cube, seeded.
std::vector<node_t> distinct_roots(SplitMix64& rng, dim_t n,
                                   std::size_t count) {
    std::vector<node_t> all(node_t{1} << n);
    std::iota(all.begin(), all.end(), node_t{0});
    rng.shuffle(all);
    all.resize(std::min(count, all.size()));
    return all;
}

/// Index sequence drawn from a discrete distribution (cumulative weights).
std::vector<std::uint32_t> draw_sequence(SplitMix64& rng,
                                         const std::vector<double>& cdf) {
    std::vector<std::uint32_t> seq(kSequenceLength);
    const double total = cdf.back();
    for (std::uint32_t& idx : seq) {
        // 53 random bits -> uniform double in [0, total).
        const double u = static_cast<double>(rng.next() >> 11) *
                         0x1.0p-53 * total;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        idx = static_cast<std::uint32_t>(
            std::min<std::ptrdiff_t>(it - cdf.begin(),
                                     static_cast<std::ptrdiff_t>(
                                         cdf.size() - 1)));
    }
    return seq;
}

std::vector<double> cumulative(const std::vector<double>& weights) {
    std::vector<double> cdf(weights.size());
    std::partial_sum(weights.begin(), weights.end(), cdf.begin());
    return cdf;
}

/// 16 resident small-block signatures at n=6: SBT and MSBT broadcast, BST
/// scatter and SBT gather, four roots each; requests uniform over them.
Generated steady_mix(SplitMix64& rng) {
    constexpr dim_t n = 6;
    constexpr std::uint32_t block = 256;
    Generated g;
    const struct {
        Op op;
        Family family;
        std::uint32_t packets;
    } groups[] = {{Op::broadcast, Family::sbt, n},
                  {Op::broadcast, Family::msbt, n},
                  {Op::scatter, Family::bst, 1},
                  {Op::gather, Family::sbt, 1}};
    for (const auto& grp : groups) {
        for (const node_t root : distinct_roots(rng, n, 4)) {
            g.population.push_back(
                make_sig(grp.op, grp.family, n, root, grp.packets, block));
        }
    }
    g.sequence = draw_sequence(
        rng, cumulative(std::vector<double>(g.population.size(), 1.0)));
    return g;
}

/// n=6 large blocks: twelve SBT reduces (1024/2048/4096 elements, four
/// distinct roots per size) carry 80% of the requests; two allgathers and
/// one alltoall share the rest.
Generated bulk_mix(SplitMix64& rng) {
    constexpr dim_t n = 6;
    Generated g;
    std::vector<double> weights;
    for (const std::uint32_t block : {1024u, 2048u, 4096u}) {
        for (const node_t root : distinct_roots(rng, n, 4)) {
            g.population.push_back(
                make_sig(Op::reduce, Family::sbt, n, root, 1, block));
            weights.push_back(0.80 / 12);
        }
    }
    for (const std::uint32_t block : {2048u, 4096u}) {
        g.population.push_back(
            make_sig(Op::allgather, Family::sbt, n, 0, 1, block));
        weights.push_back(0.06);
    }
    g.population.push_back(
        make_sig(Op::alltoall, Family::sbt, n, 0, 1, 1024));
    weights.push_back(0.08);
    g.sequence = draw_sequence(rng, cumulative(weights));
    return g;
}

/// A few thousand distinct signatures over n=3..8 requested with Zipf
/// skew against an n=8 service whose top-dimension churn address leaves
/// and rejoins. Rank r belongs to class r % |classes| under every seed
/// (the population's shape); the seed picks each rank's root, block and
/// packet count within its class. n=8 classes use the SBT (the only family
/// the incomplete cube routes) and never root at the churn address.
Generated churn_mix(SplitMix64& rng) {
    struct Class {
        Op op;
        Family family;
        dim_t n;
    };
    std::vector<Class> classes;
    for (dim_t n = 3; n <= 7; ++n) {
        for (const auto& [op, family] :
             {std::pair{Op::broadcast, Family::sbt},
              std::pair{Op::broadcast, Family::msbt},
              std::pair{Op::scatter, Family::bst},
              std::pair{Op::scatter, Family::sbt},
              std::pair{Op::gather, Family::sbt},
              std::pair{Op::gather, Family::bst},
              std::pair{Op::reduce, Family::sbt}}) {
            classes.push_back({op, family, n});
        }
        if (n <= 5) {
            classes.push_back({Op::allgather, Family::sbt, n});
            classes.push_back({Op::alltoall, Family::sbt, n});
        }
    }
    for (int twice = 0; twice < 2; ++twice) {
        for (const Op op :
             {Op::broadcast, Op::scatter, Op::gather, Op::reduce}) {
            classes.push_back({op, Family::sbt, 8});
        }
    }
    constexpr std::size_t kPerClass = 56;
    constexpr std::uint32_t kBlocks[] = {16, 32, 48, 64};

    Generated g;
    g.churn_addr = static_cast<node_t>(128 + rng.next_below(128));

    // Every class's (root, block, packets) variants, seeded order; rank r
    // takes the next unused variant of class r % |classes|.
    std::vector<std::vector<Signature>> variants(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const Class& cls = classes[c];
        const auto np = static_cast<std::uint32_t>(cls.n);
        const std::uint32_t packets[] = {
            cls.family == Family::msbt ? np : 1u,
            cls.family == Family::msbt ? 2 * np : 2u};
        for (node_t root = 0; root < (node_t{1} << cls.n); ++root) {
            if (cls.n == 8 && root == g.churn_addr) {
                continue;
            }
            for (const std::uint32_t block : kBlocks) {
                for (const std::uint32_t p : packets) {
                    variants[c].push_back(
                        make_sig(cls.op, cls.family, cls.n, root, p, block));
                }
            }
        }
        rng.shuffle(variants[c]);
    }
    // The second copy of each n=8 class draws from the same variant pool
    // as the first, so it continues after the first copy's picks.
    std::vector<std::size_t> used(classes.size(), 0);
    const auto pool_of = [&](std::size_t c) {
        for (std::size_t first = 0; first < c; ++first) {
            if (classes[first].n == classes[c].n &&
                classes[first].op == classes[c].op &&
                classes[first].family == classes[c].family) {
                return first;
            }
        }
        return c;
    };
    const std::size_t ranks = kPerClass * classes.size();
    std::vector<double> weights;
    for (std::size_t r = 0; r < ranks; ++r) {
        const std::size_t pool = pool_of(r % classes.size());
        g.population.push_back(variants[pool][used[pool]++]);
        // Zipf, exponent 0.9: the hottest few dozen ranks keep a resident
        // working set while most requests fall in the long tail.
        weights.push_back(1.0 / std::pow(static_cast<double>(r + 1), 0.9));
    }
    g.sequence = draw_sequence(rng, cumulative(weights));
    return g;
}

} // namespace

Generated generate(Workload w, std::uint64_t seed) {
    // Distinct streams per workload under one seed, except that wire_uds
    // replays steady_hot's exact requests (the two differ only in how the
    // clients reach the service).
    const Workload stream = w == Workload::wire_uds ? Workload::steady_hot : w;
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<std::uint64_t>(stream) + 1);
    switch (w) {
    case Workload::steady_hot:
    case Workload::wire_uds:
        return steady_mix(rng);
    case Workload::bulk_combine:
        return bulk_mix(rng);
    case Workload::cold_churn:
        return churn_mix(rng);
    }
    return {};
}

std::uint64_t logical_bytes(const Signature& sig,
                            std::uint64_t members) noexcept {
    const std::uint64_t block_bytes =
        std::uint64_t{sig.block_elems} * sizeof(double);
    const std::uint64_t others = members == 0 ? 0 : members - 1;
    switch (sig.op) {
    case Op::broadcast:
    case Op::scatter:
    case Op::gather:
    case Op::reduce:
        return others * sig.packets * block_bytes;
    case Op::allgather:
        return members * others * block_bytes;
    case Op::alltoall:
        return members * others * sig.packets * block_bytes;
    }
    return 0;
}

} // namespace perfbench
