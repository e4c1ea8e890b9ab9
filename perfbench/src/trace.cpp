#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

namespace perfbench {

std::vector<Span> merge(const std::vector<SpanBuffer>& bufs) {
    std::vector<Span> out;
    for (const SpanBuffer& b : bufs) {
        const auto base = static_cast<std::int64_t>(out.size());
        for (Span s : b.spans()) {
            if (s.parent >= 0) {
                s.parent += base;
            }
            out.push_back(s);
        }
    }
    return out;
}

std::map<std::string, std::vector<double>>
self_times_us(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0) {
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                  s.end_ns);
        }
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        std::int64_t covered = 0;
        std::int64_t cursor = s.start_ns;
        for (const auto& [a, b] : iv) {
            const std::int64_t lo = std::max(a, cursor);
            const std::int64_t hi = std::min(b, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        const std::int64_t self =
            std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered);
        out[s.name].push_back(static_cast<double>(self) / 1e3);
    }
    return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f) {
        return false;
    }
    std::fputs("[\n", f.get());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f.get(),
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                     "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"inferred\":%s}%s\n",
                     i, s.name, static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     s.inferred ? "true" : "false",
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f.get());
    return std::ferror(f.get()) == 0;
}

} // namespace perfbench
