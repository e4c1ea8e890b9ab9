#include "net/netd.hpp"

#include "common/check.hpp"
#include "net/frame.hpp"

#include <sys/socket.h>
#include <unistd.h>

namespace hcube::net {

Netd::Netd(dim_t n, NetdParams params)
    : service_(n, params.service), endpoint_(std::move(params.endpoint)),
      transport_(endpoint_.kind) {
    listen_fd_ = listen_endpoint(endpoint_);
    if (endpoint_.kind == ft::TransportClass::tcp && endpoint_.port == 0) {
        endpoint_.port = local_port(listen_fd_);
    }
    acceptor_ = std::thread([this] { accept_loop(); });
}

Netd::~Netd() {
    running_.store(false, std::memory_order_release);
    // Shutting the listener down kicks accept_peer's poll out; its fd is
    // closed only after the acceptor has joined, so the acceptor can never
    // poll a number the process has already reused.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    ::close(listen_fd_);
    {
        // Unblocks every serve thread mid-read; each closes its own fd.
        const std::lock_guard<std::mutex> lock(m_);
        for (const Conn& c : conns_) {
            if (c.fd >= 0) {
                ::shutdown(c.fd, SHUT_RDWR);
            }
        }
    }
    for (Conn& c : conns_) {
        c.thread.join();
    }
}

std::size_t Netd::connections() const {
    const std::lock_guard<std::mutex> lock(m_);
    return conns_.size();
}

void Netd::accept_loop() {
    while (running_.load(std::memory_order_acquire)) {
        reap_finished();
        const int fd = accept_peer(listen_fd_, 200);
        if (fd < 0) {
            continue; // timeout or shutdown; the flag decides
        }
        const std::lock_guard<std::mutex> lock(m_);
        if (!running_.load(std::memory_order_acquire)) {
            ::close(fd);
            return;
        }
        Conn& conn = conns_.emplace_back();
        conn.fd = fd;
        conn.thread = std::thread([this, &conn] { serve(conn); });
    }
}

void Netd::reap_finished() {
    std::list<Conn> finished;
    {
        const std::lock_guard<std::mutex> lock(m_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            const auto next = std::next(it);
            if (it->done) {
                finished.splice(finished.end(), conns_, it);
            }
            it = next;
        }
    }
    for (Conn& c : finished) {
        c.thread.join();
    }
}

void Netd::serve(Conn& conn) {
    const int fd = conn.fd;
    serve_requests(fd);
    // Hangup (or teardown): the connection's fd goes back to the process
    // now, not at daemon teardown, and the acceptor may join this thread.
    const std::lock_guard<std::mutex> lock(m_);
    ::close(fd);
    conn.fd = -1;
    conn.done = true;
}

void Netd::serve_requests(int fd) {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> reply;
    while (running_.load(std::memory_order_acquire)) {
        if (read_frame(fd, frame) != IoStatus::ok) {
            return; // client hung up (or teardown shut the socket)
        }
        if (frame_type(frame) == MsgType::metrics && frame.size() == 1) {
            // A bare METRICS frame is a scrape: answer with the process
            // registry (counters the in-process side and every serve
            // thread share), not with an OP_RESPONSE. A metrics frame
            // *with* a body is not a request at all — it falls through
            // to the garbage path below like any other malformed frame.
            encode_metrics(reply, obs::registry().snapshot());
            if (write_frame(fd, reply) != IoStatus::ok) {
                return;
            }
            continue;
        }
        OpResponseMsg resp;
        resp.transport = static_cast<std::uint8_t>(transport_);
        OpRequestMsg req;
        if (frame_type(frame) == MsgType::op_request &&
            decode_op_request(frame, req)) {
            resp.req_id = req.req_id;
            const svc::Response r = service_.run(req.sig);
            resp.status = static_cast<std::uint8_t>(r.status);
            resp.verified = r.stats.verified;
            resp.oracle_checked = r.stats.oracle_checked;
            resp.cache_hit = r.stats.cache_hit;
            resp.batched = r.batched;
            resp.rt_cycles = r.stats.rt_cycles;
            resp.sim_makespan = r.stats.sim_makespan;
            resp.blocks_delivered = r.stats.blocks_delivered;
            resp.payload_bytes = r.stats.payload_bytes;
            resp.seconds = r.stats.seconds;
            resp.error = r.error;
        } else {
            resp.status = static_cast<std::uint8_t>(svc::Status::failed);
            resp.error = "bad request frame";
        }
        served_.fetch_add(1, std::memory_order_relaxed);
        encode_op_response(reply, resp);
        if (write_frame(fd, reply) != IoStatus::ok) {
            return;
        }
    }
}

NetClient::NetClient(const Endpoint& endpoint, int timeout_ms) {
    fd_ = connect_endpoint(endpoint, timeout_ms);
}

NetClient::~NetClient() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

obs::RegistrySnapshot NetClient::scrape() {
    std::vector<std::uint8_t> frame;
    encode_bare(frame, MsgType::metrics);
    HCUBE_ENSURE_MSG(write_frame(fd_, frame) == IoStatus::ok,
                     "netd connection lost on scrape request");
    obs::RegistrySnapshot snap;
    HCUBE_ENSURE_MSG(read_frame(fd_, frame) == IoStatus::ok &&
                         decode_metrics(frame, snap),
                     "netd connection lost on scrape response");
    return snap;
}

OpResponseMsg NetClient::run(const svc::Signature& sig) {
    OpRequestMsg req;
    req.req_id = next_req_++;
    req.sig = sig;
    std::vector<std::uint8_t> frame;
    encode_op_request(frame, req);
    HCUBE_ENSURE_MSG(write_frame(fd_, frame) == IoStatus::ok,
                     "netd connection lost on request");
    OpResponseMsg resp;
    HCUBE_ENSURE_MSG(read_frame(fd_, frame) == IoStatus::ok &&
                         decode_op_response(frame, resp),
                     "netd connection lost on response");
    HCUBE_ENSURE_MSG(resp.req_id == req.req_id,
                     "netd response out of sequence");
    return resp;
}

} // namespace hcube::net
