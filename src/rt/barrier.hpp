// A reusable cycle barrier for the barrier Player's worker threads.
//
// The player separates every routing cycle into a send phase and a receive
// phase with a barrier after each, which is what turns the port-model
// arbitration that sim::execute_schedule *checks* into something the
// runtime *enforces*: no node can consume a block before the cycle in which
// it was scheduled to cross the link.
//
// Implemented with mutex + condition_variable rather than std::barrier:
// workers are frequently oversubscribed on the host (a 2^n-node cube on a
// handful of cores), where a blocking wait beats any spin, and the lock
// gives ThreadSanitizer an exact happens-before edge per phase.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace hcube::rt {

class CycleBarrier {
public:
    explicit CycleBarrier(std::uint32_t parties) noexcept
        : parties_(parties) {}

    /// Blocks until all `parties` threads have arrived; reusable across
    /// an arbitrary number of phases.
    void arrive_and_wait() {
        std::unique_lock lock(mutex_);
        const std::uint64_t generation = generation_;
        if (++arrived_ == parties_) {
            arrived_ = 0;
            ++generation_;
            lock.unlock();
            all_arrived_.notify_all();
            return;
        }
        all_arrived_.wait(lock,
                          [&] { return generation_ != generation; });
    }

private:
    std::mutex mutex_;
    std::condition_variable all_arrived_;
    std::uint32_t parties_;
    std::uint32_t arrived_ = 0;
    std::uint64_t generation_ = 0;
};

} // namespace hcube::rt
