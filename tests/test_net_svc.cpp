// Tests of netd — svc::Service over the wire: a daemon serving the
// collective service on Unix-domain and TCP endpoints with the net
// framing, blocking clients driving verified runs (including cache-hit
// repeats and concurrent clients), the garbage-tolerance of the request
// loop, and the daemon's fd and thread bounds under connection churn.
#include "net/netd.hpp"

#include "model/broadcast_model.hpp"
#include "net/frame.hpp"
#include "svc/signature.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace hcube::net {
namespace {

using hc::node_t;

svc::Signature broadcast_sig(dim_t n, node_t root = 0) {
    svc::Signature s;
    s.op = svc::Op::broadcast;
    s.family = svc::Family::sbt;
    s.n = n;
    s.root = root;
    s.packets = 2;
    s.block_elems = 16;
    return s;
}

NetdParams uds_params(const std::string& path) {
    NetdParams p;
    // Synthetic machine constants: skip the calibration probes.
    p.service.session.comm = model::CommParams{1.0, 1e-6};
    p.endpoint = Endpoint::unix_path(path);
    return p;
}

std::string temp_sock(const char* tag) {
    const char* base = std::getenv("TMPDIR");
    return std::string(base != nullptr ? base : "/tmp") + "/hcnetd-" + tag +
           "-" + std::to_string(::getpid()) + ".sock";
}

TEST(NetSvc, UdsRunIsVerifiedAndRepeatHitsCache) {
    const std::string path = temp_sock("basic");
    Netd daemon(4, uds_params(path));
    NetClient client(daemon.endpoint());

    const OpResponseMsg first = client.run(broadcast_sig(4));
    EXPECT_EQ(first.status, static_cast<std::uint8_t>(svc::Status::ok));
    EXPECT_TRUE(first.verified);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_GT(first.blocks_delivered, 0u);
    EXPECT_EQ(first.transport,
              static_cast<std::uint8_t>(ft::TransportClass::uds));

    const OpResponseMsg again = client.run(broadcast_sig(4));
    EXPECT_EQ(again.status, static_cast<std::uint8_t>(svc::Status::ok));
    EXPECT_TRUE(again.verified);
    EXPECT_TRUE(again.cache_hit);
    EXPECT_EQ(daemon.served(), 2u);
    ::unlink(path.c_str());
}

TEST(NetSvc, BadSignatureComesBackFailedNotTorn) {
    const std::string path = temp_sock("bad");
    Netd daemon(3, uds_params(path));
    NetClient client(daemon.endpoint());

    // MSBT with packets not divisible by n: schedule generation throws,
    // the daemon answers failed and keeps serving.
    svc::Signature bad = broadcast_sig(3);
    bad.family = svc::Family::msbt;
    bad.packets = 7;
    const OpResponseMsg resp = client.run(bad);
    EXPECT_EQ(resp.status, static_cast<std::uint8_t>(svc::Status::failed));
    EXPECT_FALSE(resp.error.empty());

    const OpResponseMsg good = client.run(broadcast_sig(3));
    EXPECT_EQ(good.status, static_cast<std::uint8_t>(svc::Status::ok));
    ::unlink(path.c_str());
}

TEST(NetSvc, GarbageFrameGetsFailedResponse) {
    const std::string path = temp_sock("garbage");
    Netd daemon(3, uds_params(path));

    const int fd = connect_endpoint(daemon.endpoint(), 5'000);
    const std::vector<std::uint8_t> garbage = {0xff, 0x00, 0x42};
    ASSERT_EQ(write_frame(fd, garbage), IoStatus::ok);
    std::vector<std::uint8_t> frame;
    ASSERT_EQ(read_frame(fd, frame), IoStatus::ok);
    OpResponseMsg resp;
    ASSERT_TRUE(decode_op_response(frame, resp));
    EXPECT_EQ(resp.status, static_cast<std::uint8_t>(svc::Status::failed));
    EXPECT_FALSE(resp.error.empty());
    ::close(fd);

    // The daemon survived: a real client still gets served.
    NetClient client(daemon.endpoint());
    EXPECT_EQ(client.run(broadcast_sig(3)).status,
              static_cast<std::uint8_t>(svc::Status::ok));
    ::unlink(path.c_str());
}

TEST(NetSvc, ConcurrentClientsAllVerified) {
    const std::string path = temp_sock("conc");
    Netd daemon(4, uds_params(path));

    constexpr int kClients = 4;
    constexpr int kRequests = 6;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            NetClient client(daemon.endpoint());
            for (int i = 0; i < kRequests; ++i) {
                // Mixed roots: some requests share cache entries, some
                // build fresh ones, all concurrently.
                const OpResponseMsg resp = client.run(broadcast_sig(
                    4, static_cast<node_t>((c + i) % 4)));
                if (resp.status ==
                        static_cast<std::uint8_t>(svc::Status::ok) &&
                    resp.verified) {
                    ok.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& t : clients) {
        t.join();
    }
    EXPECT_EQ(ok.load(), kClients * kRequests);
    EXPECT_EQ(daemon.served(),
              static_cast<std::uint64_t>(kClients * kRequests));
    ::unlink(path.c_str());
}

/// Entries of a /proc/self directory (open fds, live threads).
std::size_t proc_entries(const char* dir) {
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++count;
    }
    return count;
}

TEST(NetSvc, ConnectionChurnLeavesFdsAndThreadsBounded) {
    const std::string path = temp_sock("churn");
    Netd daemon(3, uds_params(path));
    {
        // Warm the service (plan cache, metrics) before the baseline.
        NetClient client(daemon.endpoint());
        ASSERT_TRUE(client.run(broadcast_sig(3)).verified);
    }
    const auto settle = [](const auto& done) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!done() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    };
    // Allowance over the baseline: the last connections' serve threads
    // may still be between hangup and their reap.
    constexpr std::size_t kSlack = 4;
    std::size_t fds0 = 0;
    std::size_t tasks0 = 0;
    settle([&] {
        fds0 = proc_entries("/proc/self/fd");
        tasks0 = proc_entries("/proc/self/task");
        return tasks0 <= 3; // test thread, dispatcher, acceptor
    });

    for (int i = 0; i < 256; ++i) {
        NetClient client(daemon.endpoint());
        if (i % 32 == 0) {
            ASSERT_TRUE(client.run(broadcast_sig(3)).verified);
        }
    }
    std::size_t fds = 0;
    std::size_t tasks = 0;
    settle([&] {
        fds = proc_entries("/proc/self/fd");
        tasks = proc_entries("/proc/self/task");
        return fds <= fds0 + kSlack && tasks <= tasks0 + kSlack &&
               daemon.connections() == 0;
    });
    EXPECT_LE(fds, fds0 + kSlack) << "closed connections keep their fds";
    EXPECT_LE(tasks, tasks0 + kSlack) << "serve threads outlive hangups";
    // An exited serve thread leaves /proc/self/task but keeps its stack
    // until joined; the daemon's connection list is what counts those.
    EXPECT_EQ(daemon.connections(), 0u)
        << "finished serve threads are never joined";
    ::unlink(path.c_str());
}

TEST(NetSvc, TcpLoopbackSmoke) {
    NetdParams p;
    p.service.session.comm = model::CommParams{1.0, 1e-6};
    p.endpoint = Endpoint::tcp("127.0.0.1", 0);
    Netd daemon(3, p);
    ASSERT_NE(daemon.endpoint().port, 0); // ephemeral port resolved

    NetClient client(daemon.endpoint());
    const OpResponseMsg resp = client.run(broadcast_sig(3));
    EXPECT_EQ(resp.status, static_cast<std::uint8_t>(svc::Status::ok));
    EXPECT_TRUE(resp.verified);
    EXPECT_EQ(resp.transport,
              static_cast<std::uint8_t>(ft::TransportClass::tcp));
}

} // namespace
} // namespace hcube::net
