// net::Netd — svc::Service over the wire (docs/NETWORK.md § Service).
//
// A daemon owns one svc::Service and serves it on a listening endpoint
// (Unix-domain or TCP) with the same length-prefixed framing the data
// plane uses: clients send OP_REQUEST{req_id, Signature} frames and get
// back OP_RESPONSE{req_id, status, ExecStats summary}. One serve thread
// per accepted connection; requests on a connection execute in order
// through Service::run (the service's own admission/batching machinery is
// what provides concurrency across connections). A frame that fails to
// decode gets a status=failed response — a daemon never tears down
// because one client spoke garbage. A connection's serve thread closes its
// socket when the client hangs up, and the acceptor joins finished serve
// threads, so fds and threads stay bounded under connection churn.
//
// NetClient is the matching blocking client: connect once, run() many.
#pragma once

#include "net/peer.hpp"
#include "net/protocol.hpp"
#include "svc/service.hpp"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hcube::net {

using hc::dim_t;

struct NetdParams {
    svc::ServiceParams service;
    /// Serving endpoint; its kind is the TransportClass every response
    /// reports (uds or tcp).
    Endpoint endpoint = Endpoint::unix_path("/tmp/hcube-netd.sock");
};

class Netd {
public:
    /// Binds and starts serving immediately. Throws check_error when the
    /// endpoint cannot be bound.
    Netd(dim_t n, NetdParams params);
    /// Stops accepting (the listener is closed only after the acceptor
    /// has joined), shuts every client connection down, joins the serve
    /// threads, then drains the service.
    ~Netd();

    Netd(const Netd&) = delete;
    Netd& operator=(const Netd&) = delete;

    /// The bound endpoint — with the real port for tcp port-0 binds.
    [[nodiscard]] const Endpoint& endpoint() const noexcept {
        return endpoint_;
    }
    [[nodiscard]] svc::Service& service() noexcept { return service_; }
    /// OP_REQUEST frames answered so far (any status).
    [[nodiscard]] std::uint64_t served() const noexcept {
        return served_.load(std::memory_order_relaxed);
    }
    /// Connections whose serve thread has not been joined yet: the live
    /// ones plus those that hung up since the acceptor last reaped (it
    /// reaps at least every 200 ms).
    [[nodiscard]] std::size_t connections() const;

private:
    /// One accepted connection and the thread serving it.
    struct Conn {
        int fd = -1; ///< -1 once its serve thread closed it
        std::thread thread;
        bool done = false; ///< serve returned; the thread is joinable
    };

    void accept_loop();
    void serve(Conn& conn);
    /// The request loop of one connection; returns when the peer hangs up
    /// or the socket is shut down.
    void serve_requests(int fd);
    /// Joins the serve threads that finished and forgets their connections.
    void reap_finished();

    svc::Service service_;
    Endpoint endpoint_;
    ft::TransportClass transport_;
    int listen_fd_ = -1;
    std::atomic<bool> running_{true};
    std::atomic<std::uint64_t> served_{0};
    mutable std::mutex m_; ///< guards conns_ (every Conn's fd and done)
    std::list<Conn> conns_;
    std::thread acceptor_;
};

/// Blocking client of a Netd endpoint.
class NetClient {
public:
    /// Connects (retrying until `timeout_ms`); throws check_error on
    /// failure.
    explicit NetClient(const Endpoint& endpoint, int timeout_ms = 5'000);
    ~NetClient();

    NetClient(const NetClient&) = delete;
    NetClient& operator=(const NetClient&) = delete;

    /// One round trip: OP_REQUEST out, OP_RESPONSE back. Throws
    /// check_error when the connection breaks mid-exchange.
    [[nodiscard]] OpResponseMsg run(const svc::Signature& sig);

    /// Scrapes the daemon's live metrics registry: bare METRICS out,
    /// snapshot back. Throws check_error when the connection breaks.
    [[nodiscard]] obs::RegistrySnapshot scrape();

private:
    int fd_ = -1;
    std::uint32_t next_req_ = 1;
};

} // namespace hcube::net
