// Seeded request generators for the four benchmark workloads.
//
// Each workload is a population of distinct svc::Signatures plus a fixed
// sequence of indices into it: the sequence the clients consume in order,
// whatever their number. Everything here is a pure function of the
// workload and the seed, so the same seed replays the same requests and
// the program under test only ever sees the generated signatures.
//
// Populations keep the same *shape* under every seed: the seed picks
// roots, block sizes and orderings, never the mix of operations, cube
// dimensions or families, so seeds differ in which collectives run but
// not in how much work the mix costs.
#pragma once

#include "svc/signature.hpp"

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

using hcube::hc::dim_t;
using hcube::hc::node_t;
using hcube::svc::Signature;

enum class Workload : std::uint8_t {
    steady_hot,
    bulk_combine,
    cold_churn,
    wire_uds,
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::steady_hot, Workload::bulk_combine, Workload::cold_churn,
    Workload::wire_uds};

[[nodiscard]] std::string_view to_string(Workload w) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view s);

/// Static description of a workload: the service it runs against and how
/// the load is applied.
struct Spec {
    dim_t n = 6;                ///< the Service's cube dimension
    /// Closed-loop client threads. Fewer than the service's worker pool
    /// (one per core), so waiting clients never crowd out pinned workers.
    std::uint32_t clients = 2;
    bool wire = false;          ///< clients talk to a Netd over a UDS
    /// Membership churn: every `churn_every` requests the churn address
    /// leaves (or, when it is out, rejoins). 0 = no churn.
    std::uint64_t churn_every = 0;
    /// Signatures warmed into the plan cache during set-up: the
    /// population's first `resident` entries, or all of them when 0.
    std::size_t resident = 0;
};

[[nodiscard]] Spec spec_of(Workload w) noexcept;

struct Generated {
    std::vector<Signature> population; ///< distinct signatures
    std::vector<std::uint32_t> sequence; ///< request order (indices)
    /// Top-dimension address that leaves and rejoins (churn workloads);
    /// no generated signature on the full cube is rooted there.
    node_t churn_addr = 0;
};

/// Requests in one pass of a workload's fixed sequence; clients wrap
/// around when a run outlasts it.
inline constexpr std::size_t kSequenceLength = std::size_t{1} << 16;

/// The workload's population and request sequence for `seed`.
[[nodiscard]] Generated generate(Workload w, std::uint64_t seed);

/// Payload bytes a collective must deliver to its destinations, each
/// destination block counted once however many hops it took: the base of
/// rt.copy_ratio. `members` is the live node count of the signature's
/// sub-cube (2^sig.n when complete).
///   broadcast / scatter / gather / reduce: (members - 1) * P * B * 8
///   allgather: members * (members - 1) * B * 8   (one packet per node)
///   alltoall:  members * (members - 1) * P * B * 8
[[nodiscard]] std::uint64_t logical_bytes(const Signature& sig,
                                          std::uint64_t members) noexcept;

} // namespace perfbench
