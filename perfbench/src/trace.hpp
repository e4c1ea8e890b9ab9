// In-memory span recording for the traced run.
//
// The benchmark records a span around each call it makes into a module's
// public API (name, start, end, parent span, request id). Each client
// thread appends to its own buffer, so recording takes no lock; the
// buffers are merged, reduced to per-layer self times and written out
// once, after the run.
//
// A span may be *inferred*: its duration was measured by the program
// (ExecStats::seconds, OpResponseMsg::seconds) but its position was not,
// so it is placed at the end of its parent. Self times only use durations
// and containment, which an inferred span reports correctly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";    ///< static string: the layer call
    std::int64_t parent = -1; ///< index in the merged list, -1 for roots
    std::uint64_t request = 0;
    std::int64_t start_ns = 0; ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    bool inferred = false;
};

class SpanBuffer {
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanBuffer(Clock::time_point epoch) : epoch_(epoch) {}

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }
    /// Opens a span starting now; returns its local index.
    std::int64_t open(const char* name, std::int64_t parent,
                      std::uint64_t request) {
        spans_.push_back(Span{name, parent, request, now_ns(), 0, false});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    void close(std::int64_t idx) {
        spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    }
    /// Appends a finished span (inferred ones included).
    std::int64_t add(Span s) {
        spans_.push_back(s);
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    [[nodiscard]] const Span& at(std::int64_t idx) const {
        return spans_[static_cast<std::size_t>(idx)];
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    void reserve(std::size_t n) { spans_.reserve(n); }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/// Concatenates per-thread buffers, rebasing parent indices.
[[nodiscard]] std::vector<Span> merge(const std::vector<SpanBuffer>& bufs);

/// Per span name, every span's self time in microseconds: its duration
/// minus the part of its interval covered by its children.
[[nodiscard]] std::map<std::string, std::vector<double>>
self_times_us(const std::vector<Span>& spans);

/// Writes the spans as a JSON array (one object per span). Returns false
/// when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

} // namespace perfbench
