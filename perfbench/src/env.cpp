#include "env.hpp"

#include "rt/simd.hpp"

#include <sched.h>

#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/// The calling thread's CPU affinity as a range list ("0-3,6").
std::string affinity_mask() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
        return "unknown";
    }
    std::ostringstream out;
    const auto set_at = [&](std::size_t c) {
        return c < CPU_SETSIZE && CPU_ISSET(c, &set);
    };
    bool first = true;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!set_at(cpu)) {
            continue;
        }
        std::size_t last = cpu;
        while (set_at(last + 1)) {
            ++last;
        }
        out << (first ? "" : ",") << cpu;
        if (last > cpu) {
            out << '-' << last;
        }
        first = false;
        cpu = last;
    }
    return out.str();
}

std::string quoted(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (c >= 0x20) ? c : ' ';
    }
    return out + '"';
}

} // namespace

std::vector<std::string> hcube_overrides() {
    std::vector<std::string> out;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        const std::string_view kv(*e);
        if (kv.rfind("HCUBE_", 0) == 0) {
            out.emplace_back(kv.substr(0, kv.find('=')));
        }
    }
    return out;
}

HostTicks host_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu; // "cpu": the all-CPU line
    HostTicks t;
    std::uint64_t v = 0;
    for (int field = 0; field < 8 && (in >> v); ++field) {
        t.total += v;
        if (field == 7) {
            t.steal = v;
        }
    }
    return t;
}

std::string env_stamp_json(const std::string& git_sha) {
    std::ostringstream out;
    out << "{\"cpu\":" << quoted(cpu_model())
        << ",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"affinity\":" << quoted(affinity_mask())
        << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
        << ",\"flags\":" << quoted(PERFBENCH_CXX_FLAGS)
        << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
        << ",\"git_sha\":" << quoted(git_sha)
        << ",\"simd\":" << quoted(hcube::rt::simd::dispatch_name()) << "}";
    return out.str();
}

} // namespace perfbench
