// Fault detection on the executing engines: the AsyncPlayer's serial walk
// in process, and net::NetPlayer over sockets.
//
// Detection turns the runtime's silent failure counters into the
// structured abort the recovery layer needs: the first failure claims the
// engine's single FaultReport slot (every later claim is a no-op), and the
// engine stops at its next action instead of executing further payload
// work.
//
// A missing block is detected differently per medium. The serial walk runs
// every send of a cycle before its receives, on one thread, and an injected
// delay sleeps in the producer before it publishes — so an empty ring at
// pop time means the block is lost, and waiting cannot bring it: the pop
// reports it at once. A socket bank is fed by an I/O thread that can still
// publish after a wire crossing and its retransmits, so only there does a
// pop wait, bounded (await_front, ft::DetectConfig).
#pragma once

#include "ft/fault_model.hpp"
#include "obs/metrics.hpp"
#include "rt/channel.hpp"
#include "rt/plan.hpp"

#include <chrono>
#include <span>
#include <string>
#include <thread>

namespace hcube::rt {

/// Fills a FaultReport from the plan's channel diagnostics: the directed
/// link behind `channel`, the logical schedule `cycle` of the receive, and
/// the `packet` it expected.
[[nodiscard]] inline ft::FaultReport
make_fault_report(const Plan& plan, ft::DetectClass cls,
                  std::uint32_t channel, std::uint32_t cycle,
                  packet_t packet) {
    ft::FaultReport report;
    report.cls = cls;
    report.from = plan.channel_from(channel);
    report.to = plan.channel_to(channel);
    report.channel = channel;
    report.cycle = cycle;
    report.packet = packet;
    return report;
}

/// First-wins fault report slot; a claimed report is the abort flag the
/// engine polls. Both detecting engines run one thread per play, so the
/// slot needs no synchronization. reset() between runs.
class FaultArbiter {
public:
    void reset() noexcept { report_ = {}; }

    [[nodiscard]] bool aborted() const noexcept { return report_.faulted(); }

    /// Claims the report slot for `report` unless a fault was already
    /// claimed this run; the claim aborts the run.
    void raise(const ft::FaultReport& report) noexcept {
        if (aborted()) {
            return;
        }
        report_ = report;
        // First claim only — one registry lookup per detected fault, off
        // the clean-run path entirely.
        obs::registry()
            .counter(std::string("ft.report.") + ft::to_string(report.cls))
            .inc();
    }

    /// The first claimed fault (cls == none if the run was clean).
    [[nodiscard]] const ft::FaultReport& report() const noexcept {
        return report_;
    }

private:
    ft::FaultReport report_{};
};

/// Polls `channels.front(channel)` until a descriptor appears, the arbiter
/// aborts, or `timeout_us` elapses. Returns false on timeout/abort. The
/// caller re-checks packet/seq itself. Only socket banks wait (see the
/// header comment): this gives a wire crossing — and its ack-timeout
/// retransmits — room to land.
template <class Bank>
[[nodiscard]] inline bool
await_front(const Bank& channels, std::uint32_t channel,
            ChannelBank::Desc& d, std::uint32_t timeout_us,
            const FaultArbiter& arbiter) {
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::microseconds(timeout_us);
    for (;;) {
        if (channels.front(channel, d)) {
            return true;
        }
        if (arbiter.aborted() || clock::now() >= deadline) {
            return false;
        }
        std::this_thread::yield();
    }
}

} // namespace hcube::rt
