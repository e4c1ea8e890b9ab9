// Flat first-delivery tracking for the schedule executor.
//
// The executor's result is conceptually a matrix delivery[node][packet] of
// first-delivery cycles. Broadcast workloads fill the whole matrix, so a
// single contiguous packet-major array is the fastest representation; for
// scatter / all-to-all workloads almost every (node, packet) pair stays
// undelivered and the dense matrix is O(N·P) waste — at n = 20 a scatter has
// N·P ≈ 2^40 cells but only ~n·P actual deliveries. DeliveryMap offers both
// layouts behind one interface: a dense packet-major array, or an
// open-addressing hash table keyed by (packet, node) sized once from the
// schedule's send count (so the executor's hot path never rehashes).
#pragma once

#include "common/check.hpp"
#include "hc/types.hpp"

#include <bit>
#include <cstdint>
#include <vector>

namespace hcube::sim {

using hc::node_t;

/// Identifies one unit of data (one packet of up to B elements).
using packet_t = std::uint32_t;

class DeliveryMap {
public:
    /// Sentinel "never delivered" cycle; real cycles stay below it.
    static constexpr std::uint32_t kNever = 0xffffffffu;

    DeliveryMap() = default;

    /// Dense packet-major matrix: cell (node, packet) at packet·N + node.
    [[nodiscard]] static DeliveryMap dense(node_t nodes, packet_t packets) {
        DeliveryMap map;
        map.nodes_ = nodes;
        map.packets_ = packets;
        const std::uint64_t cells = std::uint64_t{nodes} * packets;
        HCUBE_ENSURE_MSG(cells <= (std::uint64_t{1} << 32),
                         "dense delivery matrix too large; use sparse "
                         "tracking");
        map.cells_.assign(static_cast<std::size_t>(cells), kNever);
        return map;
    }

    /// Hash map sized for `expected_entries` insertions without rehashing.
    [[nodiscard]] static DeliveryMap sparse(node_t nodes, packet_t packets,
                                            std::size_t expected_entries) {
        DeliveryMap map;
        map.nodes_ = nodes;
        map.packets_ = packets;
        map.sparse_ = true;
        map.rehash(table_size_for(expected_entries));
        return map;
    }

    [[nodiscard]] bool is_sparse() const noexcept { return sparse_; }
    [[nodiscard]] node_t nodes() const noexcept { return nodes_; }
    [[nodiscard]] packet_t packets() const noexcept { return packets_; }
    /// Number of (node, packet) pairs with a recorded cycle (sparse mode);
    /// in dense mode, the number of cells written via set().
    [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }
    /// Heap bytes the map keeps allocated (either representation).
    [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
        return std::uint64_t{cells_.capacity()} * sizeof(std::uint32_t) +
               std::uint64_t{keys_.capacity()} * sizeof(std::uint64_t) +
               std::uint64_t{values_.capacity()} * sizeof(std::uint32_t);
    }

    /// First cycle after which `node` holds `packet`; kNever if it never
    /// does. Unchecked hot-path accessor: both indices must be in range.
    [[nodiscard]] std::uint32_t get(node_t node,
                                    packet_t packet) const noexcept {
        if (!sparse_) {
            return cells_[cell_index(node, packet)];
        }
        const std::uint64_t key = make_key(node, packet);
        std::size_t slot = probe_start(key);
        while (true) {
            const std::uint64_t found = keys_[slot];
            if (found == key) {
                return values_[slot];
            }
            if (found == kEmptyKey) {
                return kNever;
            }
            slot = (slot + 1) & mask_;
        }
    }

    /// Records (or overwrites) the delivery cycle of (node, packet).
    void set(node_t node, packet_t packet, std::uint32_t cycle) {
        if (!sparse_) {
            std::uint32_t& cell = cells_[cell_index(node, packet)];
            entries_ += cell == kNever;
            cell = cycle;
            return;
        }
        if ((entries_ + 1) * 4 > 3 * (mask_ + 1)) {
            rehash((mask_ + 1) * 2);
        }
        const std::uint64_t key = make_key(node, packet);
        std::size_t slot = probe_start(key);
        while (keys_[slot] != kEmptyKey && keys_[slot] != key) {
            slot = (slot + 1) & mask_;
        }
        entries_ += keys_[slot] == kEmptyKey;
        keys_[slot] = key;
        values_[slot] = cycle;
    }

    /// Bounds-checked read-only row view preserving the historical
    /// map[node][packet] indexing.
    class Row {
    public:
        Row(const DeliveryMap& map, node_t node) : map_(&map), node_(node) {}
        [[nodiscard]] std::uint32_t operator[](packet_t packet) const {
            HCUBE_ENSURE(node_ < map_->nodes_ && packet < map_->packets_);
            return map_->get(node_, packet);
        }

    private:
        const DeliveryMap* map_;
        node_t node_;
    };

    [[nodiscard]] Row operator[](node_t node) const noexcept {
        return Row(*this, node);
    }

private:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    [[nodiscard]] std::size_t cell_index(node_t node,
                                         packet_t packet) const noexcept {
        return static_cast<std::size_t>(packet) * nodes_ + node;
    }

    [[nodiscard]] static std::uint64_t make_key(node_t node,
                                                packet_t packet) noexcept {
        // Cannot collide with kEmptyKey: node < 2^kMaxDimension < 2^32 - 1.
        return (std::uint64_t{packet} << 32) | node;
    }

    [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept {
        // Fibonacci hashing spreads the low-entropy (packet, node) keys.
        const std::uint64_t mixed =
            key * std::uint64_t{0x9e3779b97f4a7c15};
        return static_cast<std::size_t>(mixed >> 32) & mask_;
    }

    [[nodiscard]] static std::size_t
    table_size_for(std::size_t expected_entries) noexcept {
        // Keep the load factor at or below 1/2 after `expected_entries`.
        return std::bit_ceil(std::max<std::size_t>(16, expected_entries * 2));
    }

    void rehash(std::size_t new_size) {
        std::vector<std::uint64_t> old_keys(new_size, kEmptyKey);
        std::vector<std::uint32_t> old_values(new_size, 0);
        old_keys.swap(keys_);
        old_values.swap(values_);
        mask_ = new_size - 1;
        for (std::size_t slot = 0; slot < old_keys.size(); ++slot) {
            if (old_keys[slot] == kEmptyKey) {
                continue;
            }
            std::size_t target = probe_start(old_keys[slot]);
            while (keys_[target] != kEmptyKey) {
                target = (target + 1) & mask_;
            }
            keys_[target] = old_keys[slot];
            values_[target] = old_values[slot];
        }
    }

    node_t nodes_ = 0;
    packet_t packets_ = 0;
    bool sparse_ = false;
    std::size_t entries_ = 0;
    std::vector<std::uint32_t> cells_;   ///< dense: packet-major matrix
    std::vector<std::uint64_t> keys_;    ///< sparse: open addressing
    std::vector<std::uint32_t> values_;  ///< sparse: cycle per key slot
    std::size_t mask_ = 0;
};

} // namespace hcube::sim
