#include "rt/plan.hpp"

#include "common/check.hpp"
#include "rt/checksum.hpp"

#include <algorithm>
#include <bit>
#include <compare>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace hcube::rt {

namespace {

[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void
fail_send(const char* what, const sim::ScheduledSend& send) {
    throw check_error(std::string("plan violation: ") + what + " (cycle " +
                      std::to_string(send.cycle) + ", " +
                      std::to_string(send.from) + " -> " +
                      std::to_string(send.to) + ", packet " +
                      std::to_string(send.packet) + ")");
}

template <typename T>
std::uint64_t vec_bytes(const std::vector<T>& v) noexcept {
    return std::uint64_t{v.capacity()} * sizeof(T);
}

} // namespace

BlockArena::BlockArena(std::size_t blocks, std::size_t stride,
                       packet_t packets)
    : data_(blocks * stride + 7), stride_(stride), packets_(packets) {
    const auto raw = reinterpret_cast<std::uintptr_t>(data_.data());
    base_ = reinterpret_cast<double*>(raw + ((0u - raw) & 63u));
}

BlockArena::BlockArena(packet_t packets, std::size_t block_elems)
    : BlockArena(std::size_t{packets}, arena_stride_of(block_elems),
                 packets) {
    digests_.resize(packets);
    for (packet_t p = 0; p < packets; ++p) {
        double* const b = base_ + std::size_t{p} * stride_;
        fill_canonical({b, stride_}, p);
        digests_[p] = block_checksum({b, block_elems});
    }
}

BlockArena::BlockArena(dim_t n, packet_t packets, std::size_t stride)
    : BlockArena((std::size_t{1} << n) * packets, stride, packets) {
    for (node_t v = 0; v < (node_t{1} << n); ++v) {
        for (packet_t p = 0; p < packets; ++p) {
            fill_contribution(
                {base_ + (std::size_t{v} * packets + p) * stride, stride}, v,
                p);
        }
    }
}

namespace {

/// Identity of a shareable arena: contributors is 0 for a canonical arena
/// (sized by its block_elems, which its digests cover) and the cube
/// dimension + 1 for a contribution arena (sized by its stride).
struct ArenaKey {
    std::uint32_t contributors;
    packet_t packets;
    std::size_t elems;
    auto operator<=>(const ArenaKey&) const = default;
};

template <class Make>
std::shared_ptr<const BlockArena> shared_arena(const ArenaKey& key,
                                               Make&& make) {
    static std::mutex mutex;
    static std::map<ArenaKey, std::weak_ptr<const BlockArena>> live;
    const std::lock_guard lock(mutex);
    std::shared_ptr<const BlockArena> arena = live[key].lock();
    if (arena == nullptr) {
        std::erase_if(live, [](const auto& kv) { return kv.second.expired(); });
        arena = make();
        live[key] = arena;
    }
    return arena;
}

} // namespace

std::shared_ptr<const BlockArena> shared_block_arena(packet_t packets,
                                                     std::size_t block_elems) {
    return shared_arena({0, packets, block_elems}, [&] {
        return std::make_shared<const BlockArena>(packets, block_elems);
    });
}

std::shared_ptr<const BlockArena>
shared_contribution_arena(dim_t n, packet_t packets, std::size_t stride) {
    return shared_arena(
        {static_cast<std::uint32_t>(n) + 1, packets, stride}, [&] {
            return std::make_shared<const BlockArena>(n, packets, stride);
        });
}

PlanFootprint Plan::footprint() const noexcept {
    PlanFootprint f;
    f.actions = vec_bytes(act_channel) + vec_bytes(act_slot) +
                vec_bytes(act_packet) + vec_bytes(act_seq);
    f.buckets = vec_bytes(send_begin) + vec_bytes(recv_begin) +
                vec_bytes(send_order) + vec_bytes(recv_order) +
                vec_bytes(flat_cycle_begin);
    f.slots = vec_bytes(slot_packet) + vec_bytes(slot_node) +
              vec_bytes(seeded_slots) + vec_bytes(slot_keys) +
              vec_bytes(slot_vals);
    f.channels = vec_bytes(channel_ep) + vec_bytes(node_out_ports) +
                 vec_bytes(node_in_ports) + vec_bytes(node_owner);
    f.arena = arena == nullptr ? 0
                               : arena->elements().size_bytes() +
                                     arena->digests().size_bytes();
    return f;
}

Plan compile_plan(const sim::Schedule& schedule, DataMode mode,
                  std::size_t block_elems, std::uint32_t workers,
                  std::uint32_t async_depth, PlanLayout /*layout*/,
                  std::span<const node_t> members) {
    // The 32-bit action fields are validated for n <= kCompactMaxDimension
    // (slot and lowered-index counts stay well inside u32 there).
    HCUBE_ENSURE_MSG(schedule.n >= 1 && schedule.n <= kCompactMaxDimension,
                     "runtime plans require 1 <= n <= 20");
    HCUBE_ENSURE(block_elems >= 1);
    HCUBE_ENSURE(async_depth >= 1);
    const node_t count = node_t{1} << schedule.n;
    HCUBE_ENSURE(workers >= 1 && workers <= count);
    HCUBE_ENSURE(schedule.initial_holder.size() == schedule.packet_count);
    HCUBE_ENSURE(schedule.sends.size() < (std::size_t{1} << 31));

    Plan plan;
    plan.n = schedule.n;
    plan.packet_count = schedule.packet_count;
    plan.block_elems = block_elems;
    plan.mode = mode;
    plan.workers = workers;
    plan.async_depth = std::bit_ceil(async_depth);

    // ---- member partition (incomplete cubes) --------------------------
    // A full member span compiles exactly like no span at all: node_owner
    // stays empty and owner_of keeps its arithmetic split, so full-view
    // member plans are bit-for-bit the plans of the static world.
    std::vector<char> live;
    if (!members.empty() && members.size() < count) {
        HCUBE_ENSURE_MSG(workers <= members.size(),
                         "more workers than live members");
        live.assign(count, 0);
        plan.node_owner.assign(count, 0);
        std::uint32_t owner = 0;
        for (std::size_t r = 0; r < members.size(); ++r) {
            const node_t v = members[r];
            HCUBE_ENSURE_MSG(v < count, "member address outside the cube");
            HCUBE_ENSURE_MSG(r == 0 || members[r - 1] < v,
                             "member span must be ascending and unique");
            live[v] = 1;
            // Live rank r belongs to worker (r * workers) / N_live —
            // contiguous balanced ranges over the members; the absent
            // addresses in between inherit the current worker so the
            // table is total (they own no actions either way).
            owner = static_cast<std::uint32_t>(
                r * std::uint64_t{workers} / members.size());
            plan.node_owner[v] = owner;
        }
        owner = 0;
        for (node_t v = 0; v < count; ++v) {
            if (live[v] != 0) {
                owner = plan.node_owner[v];
            } else {
                plan.node_owner[v] = owner;
            }
        }
    }

    std::vector<sim::ScheduledSend> sends = schedule.sends;
    std::ranges::stable_sort(sends, {}, &sim::ScheduledSend::cycle);
    if (!sends.empty()) {
        const std::uint32_t last = sends.back().cycle;
        if (last + 1 == 0) [[unlikely]] {
            fail_send("cycle index too large", sends.back());
        }
        plan.cycles = last + 1;
    }

    // ---- slot assignment with availability / duplicate checks ---------
    /// Cycle from which each slot's block may be forwarded (0 = initially
    /// held). Only consulted in move mode; combine slots are all available
    /// from the start (they hold the node's own contribution).
    std::vector<std::uint32_t> slot_acquire;
    /// Compile-time slot index; flattened into the plan's sorted
    /// slot_keys / slot_vals tables once the slot set is final.
    std::unordered_map<std::uint64_t, std::uint64_t> slot_index;
    const auto find_slot = [&](node_t node, packet_t packet) {
        const auto it =
            slot_index.find((std::uint64_t{packet} << 32) | node);
        return it == slot_index.end() ? Plan::kNoSlot : it->second;
    };
    const auto create_slot = [&](node_t node, packet_t packet,
                                 std::uint32_t acquire) {
        const std::uint64_t id = plan.total_slots++;
        slot_index.emplace((std::uint64_t{packet} << 32) | node, id);
        plan.slot_packet.push_back(packet);
        plan.slot_node.push_back(node);
        slot_acquire.push_back(acquire);
        return id;
    };

    if (mode == DataMode::move) {
        for (packet_t p = 0; p < schedule.packet_count; ++p) {
            const node_t holder = schedule.initial_holder[p];
            HCUBE_ENSURE(holder < count);
            HCUBE_ENSURE_MSG(live.empty() || live[holder] != 0,
                             "initial holder is not a live member");
            plan.seeded_slots.push_back(
                static_cast<std::uint32_t>(create_slot(holder, p, 0)));
        }
    }

    // ---- channel numbering + lowering ---------------------------------
    // Channels are numbered in first-use order. For cubes up to n = 16 a
    // dense (node, dimension) table replaces the hash map — the validated
    // sends below guarantee from ^ to is a single bit, so a directed link
    // is exactly (from, countr_zero(from ^ to)): the packed channel_ep
    // word the plan keeps.
    const auto dims = static_cast<std::size_t>(schedule.n);
    const bool dense_links = schedule.n <= 16;
    std::vector<std::uint32_t> link_table; ///< channel + 1; 0 = unseen
    if (dense_links) {
        link_table.assign(std::size_t{count} * dims, 0);
    }
    std::unordered_map<std::uint64_t, std::uint32_t> link_map;
    /// Last cycle each channel carried a block (one packet per directed
    /// link per cycle, the link-capacity rule).
    std::vector<std::uint64_t> channel_last_cycle;
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
    /// Per channel: pushes lowered so far — the next hop's sequence stamp.
    std::vector<std::uint32_t> chan_seq;

    // Port bitmaps are built as links are numbered — they are primary
    // lowering data (cross-checked against the channel table below), not a
    // diagnostics afterthought.
    plan.node_out_ports.assign(count, 0);
    plan.node_in_ports.assign(count, 0);

    /// One lowered hop: its cycle, the two endpoints' slots, and the
    /// channel and sequence stamp both halves share.
    struct Lowered {
        std::uint32_t cycle;
        std::uint32_t channel;
        std::uint32_t seq;
        packet_t packet;
        node_t from;
        node_t to;
        std::uint32_t src_slot;
        std::uint32_t dst_slot;
    };
    std::vector<Lowered> lowered;
    lowered.reserve(sends.size());

    for (const sim::ScheduledSend& send : sends) {
        if (send.from >= count || send.to >= count) [[unlikely]] {
            fail_send("node out of range", send);
        }
        if (!std::has_single_bit(send.from ^ send.to)) [[unlikely]] {
            fail_send("send between non-neighbors", send);
        }
        if (!live.empty() &&
            (live[send.from] == 0 || live[send.to] == 0)) [[unlikely]] {
            fail_send("send endpoint is not a live member", send);
        }
        if (send.packet >= schedule.packet_count) [[unlikely]] {
            fail_send("unknown packet", send);
        }
        const auto dim = static_cast<std::uint32_t>(
            std::countr_zero(send.from ^ send.to));

        std::uint32_t channel;
        bool inserted;
        if (dense_links) {
            std::uint32_t& entry =
                link_table[std::size_t{send.from} * dims + dim];
            inserted = entry == 0;
            if (inserted) {
                entry =
                    static_cast<std::uint32_t>(plan.channel_ep.size()) + 1;
            }
            channel = entry - 1;
        } else {
            const std::uint64_t link_key =
                (std::uint64_t{send.from} << 32) | send.to;
            const auto [it, fresh] = link_map.emplace(
                link_key,
                static_cast<std::uint32_t>(plan.channel_ep.size()));
            inserted = fresh;
            channel = it->second;
        }
        if (inserted) {
            channel_last_cycle.push_back(kIdle);
            plan.channel_ep.push_back(
                (send.from << Plan::kChannelDimBits) | dim);
            plan.node_out_ports[send.from] |= std::uint32_t{1} << dim;
            plan.node_in_ports[send.to] |= std::uint32_t{1} << dim;
            chan_seq.push_back(0);
        }
        if (channel_last_cycle[channel] == send.cycle) [[unlikely]] {
            fail_send("two packets on one directed link in one cycle", send);
        }
        channel_last_cycle[channel] = send.cycle;

        std::uint64_t src_slot = find_slot(send.from, send.packet);
        if (src_slot == Plan::kNoSlot) {
            if (mode == DataMode::move) [[unlikely]] {
                fail_send("sender never holds the packet", send);
            }
            src_slot = create_slot(send.from, send.packet, 0);
        } else if (mode == DataMode::move &&
                   slot_acquire[src_slot] > send.cycle) [[unlikely]] {
            fail_send("sender does not hold the packet yet", send);
        }

        std::uint64_t dst_slot = find_slot(send.to, send.packet);
        if (dst_slot == Plan::kNoSlot) {
            dst_slot = create_slot(send.to, send.packet, send.cycle + 1);
        } else if (mode == DataMode::move) [[unlikely]] {
            fail_send("receiver already holds the packet", send);
        }

        lowered.push_back({send.cycle, channel, chan_seq[channel]++,
                           send.packet, send.from, send.to,
                           static_cast<std::uint32_t>(src_slot),
                           static_cast<std::uint32_t>(dst_slot)});
    }
    plan.channel_count = static_cast<std::uint32_t>(plan.channel_ep.size());
    HCUBE_ENSURE(plan.total_slots <= ~std::uint32_t{0});

    // Partition cross-check: every channel is a distinct (origin, port)
    // pair, so the port bitmaps must account for each channel exactly once
    // at both endpoints — this is what certifies the packed channel_ep
    // words (and the owner_of bucketing keyed off them) lost nothing.
    std::uint64_t out_links = 0;
    std::uint64_t in_links = 0;
    for (node_t v = 0; v < count; ++v) {
        out_links += static_cast<std::uint32_t>(
            std::popcount(plan.node_out_ports[v]));
        in_links += static_cast<std::uint32_t>(
            std::popcount(plan.node_in_ports[v]));
    }
    HCUBE_ENSURE(out_links == plan.channel_count);
    HCUBE_ENSURE(in_links == plan.channel_count);

    if (mode == DataMode::combine) {
        plan.seeded_slots.resize(plan.total_slots);
        for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
            plan.seeded_slots[s] = static_cast<std::uint32_t>(s);
        }
    }

    // ---- read-only lookup tables --------------------------------------
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lookup(
        slot_index.begin(), slot_index.end());
    std::ranges::sort(lookup, {},
                      &std::pair<std::uint64_t, std::uint64_t>::first);
    plan.slot_keys.reserve(lookup.size());
    plan.slot_vals.reserve(lookup.size());
    for (const auto& [key, slot] : lookup) {
        plan.slot_keys.push_back(key);
        plan.slot_vals.push_back(static_cast<std::uint32_t>(slot));
    }

    // Slot ids and (node, packet) keys are a bijection; every slot-ordered
    // reader (players' slot_block, the service's verifiers) relies on it.
    for (std::uint64_t s = 0; s < plan.total_slots; ++s) {
        HCUBE_ENSURE(plan.slot_of(plan.slot_node[s], plan.slot_packet[s]) ==
                     s);
    }

    // ---- immutable block arena ----------------------------------------
    plan.arena_stride = arena_stride_of(block_elems);
    plan.arena =
        mode == DataMode::move
            ? shared_block_arena(schedule.packet_count, block_elems)
            : shared_contribution_arena(schedule.n, schedule.packet_count,
                                        plan.arena_stride);

    // ---- lowered actions: SoA streams ---------------------------------
    const auto S = static_cast<std::uint32_t>(lowered.size());

    // Cycle CSR over lowered indices (lowered order is cycle-sorted).
    plan.flat_cycle_begin.assign(std::size_t{plan.cycles} + 1, 0);
    for (const Lowered& l : lowered) {
        ++plan.flat_cycle_begin[std::size_t{l.cycle} + 1];
    }
    for (std::size_t c = 1; c <= plan.cycles; ++c) {
        plan.flat_cycle_begin[c] += plan.flat_cycle_begin[c - 1];
    }

    // SoA streams indexed by interleaved action id: hop l's send is id 2l,
    // its receive 2l+1.
    plan.act_channel.resize(std::size_t{2} * S);
    plan.act_slot.resize(std::size_t{2} * S);
    plan.act_packet.resize(std::size_t{2} * S);
    plan.act_seq.resize(std::size_t{2} * S);
    for (std::uint32_t l = 0; l < S; ++l) {
        const Lowered& hop = lowered[l];
        const std::size_t snd = std::size_t{2} * l;
        plan.act_channel[snd] = plan.act_channel[snd + 1] = hop.channel;
        plan.act_packet[snd] = plan.act_packet[snd + 1] = hop.packet;
        plan.act_seq[snd] = plan.act_seq[snd + 1] = hop.seq;
        plan.act_slot[snd] = hop.src_slot;
        plan.act_slot[snd + 1] = hop.dst_slot;
    }

    // ---- CSR bucketing by (cycle, worker) -----------------------------
    const std::size_t buckets = std::size_t{plan.cycles} * workers;
    const auto bucket_fill = [&](node_t Lowered::*endpoint,
                                 std::vector<std::uint32_t>& begin,
                                 std::vector<std::uint32_t>& order) {
        const auto bucket_of = [&](const Lowered& l) {
            return std::size_t{l.cycle} * workers +
                   plan.owner_of(l.*endpoint);
        };
        begin.assign(buckets + 1, 0);
        for (const Lowered& l : lowered) {
            ++begin[bucket_of(l) + 1];
        }
        for (std::size_t b = 1; b <= buckets; ++b) {
            begin[b] += begin[b - 1];
        }
        std::vector<std::uint32_t> cursor(begin.begin(), begin.end() - 1);
        order.resize(S);
        for (std::uint32_t idx = 0; idx < S; ++idx) {
            order[cursor[bucket_of(lowered[idx])]++] = idx;
        }
    };
    bucket_fill(&Lowered::from, plan.send_begin, plan.send_order);
    bucket_fill(&Lowered::to, plan.recv_begin, plan.recv_order);

    // Trim push_back growth slack so footprint() reports what the plan
    // actually needs, not what the growth policy left behind.
    plan.slot_packet.shrink_to_fit();
    plan.slot_node.shrink_to_fit();
    plan.seeded_slots.shrink_to_fit();
    plan.channel_ep.shrink_to_fit();
    return plan;
}

void seed_plan_memory(const Plan& plan, std::span<double> memory) {
    const std::size_t blk = plan.block_elems;
    HCUBE_ENSURE(memory.size() ==
                 static_cast<std::size_t>(plan.total_slots) * blk);
    // Seeded slots are the prefix of the slot ids: copy each one's block
    // from the arena and zero the rest.
    const std::size_t seeded = plan.seeded_slots.size();
    for (std::size_t s = 0; s < seeded; ++s) {
        const double* block =
            plan.mode == DataMode::move
                ? plan.arena->block(plan.slot_packet[s])
                : plan.arena->contribution(plan.slot_node[s],
                                           plan.slot_packet[s]);
        std::memcpy(memory.data() + s * blk, block, blk * sizeof(double));
    }
    std::fill(memory.begin() + static_cast<std::ptrdiff_t>(seeded * blk),
              memory.end(), 0.0);
}

std::uint64_t schedule_fingerprint(const sim::Schedule& schedule) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(schedule.n));
    mix(schedule.packet_count);
    for (const node_t holder : schedule.initial_holder) {
        mix(holder);
    }
    for (const sim::ScheduledSend& s : schedule.sends) {
        mix((std::uint64_t{s.cycle} << 32) | s.packet);
        mix((std::uint64_t{s.from} << 32) | s.to);
    }
    return h;
}

} // namespace hcube::rt
