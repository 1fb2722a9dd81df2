#include "server/server.hpp"

#include "server/json.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace seqlearn::server {

namespace {

/// A transport-level error line: it answers no parsed command, so unlike a
/// service error it carries no "cmd" member.
std::string transport_error(ProtoCode code, std::string_view cls, std::string_view message) {
    JsonWriter w;
    w.begin_object().field("ok", false).field("code", static_cast<int>(code));
    w.key("error").begin_object();
    w.field("code", static_cast<int>(code)).field("class", cls).field("message", message);
    return w.end_object().end_object().take();
}

}  // namespace

/// Write the full line + '\n'. MSG_NOSIGNAL: a client that hung up must
/// surface as a failed send, not a SIGPIPE. EINTR retries; partial sends
/// (real, or forced by an armed SockSend failpoint) resume at the next
/// unsent byte. With a write deadline configured, a client that stops
/// draining its socket costs at most `write_timeout` of this thread's time
/// before the connection is declared dead — without one, a single
/// non-reading client could pin the serving thread forever.
bool Server::send_line(int fd, std::string_view line) {
    std::string framed(line);
    framed += '\n';
    const bool deadline_set = cfg_.write_timeout.count() > 0;
    const auto deadline = std::chrono::steady_clock::now() + cfg_.write_timeout;
    std::size_t sent = 0;
    while (sent < framed.size()) {
        if (deadline_set) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) {
                counters_.write_timeouts.fetch_add(1, std::memory_order_relaxed);
                return false;
            }
            pollfd pfd{fd, POLLOUT, 0};
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
                    .count();
            const int ready = ::poll(&pfd, 1, left > 0 ? static_cast<int>(left) : 1);
            if (ready < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            if (ready == 0) {
                counters_.write_timeouts.fetch_add(1, std::memory_order_relaxed);
                return false;
            }
        }
        std::size_t len = framed.size() - sent;
        if (cfg_.failpoint != nullptr &&
            cfg_.failpoint->fire(exec::FailSite::SockSend) && len > 1) {
            len = 1;  // injected short send; the loop must finish the frame
        }
        const ssize_t n = ::send(fd, framed.data() + sent, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        if (n == 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

Server::Server(ServerConfig cfg) : cfg_(cfg), service_(cfg.service) {
    service_.set_transport_counters(&counters_);
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error) *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never off-host
    addr.sin_port = htons(cfg_.port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(listen_fd_, 64) < 0) {
        if (error)
            *error = std::string("bind/listen on port ") + std::to_string(cfg_.port) +
                     ": " + std::strerror(errno);
        close_listener();
        return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);

    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
}

void Server::accept_loop() {
    // Poll with a short timeout so the stop flag and a protocol `shutdown`
    // are noticed within ~100ms even when no client ever connects.
    while (!stopping_.load(std::memory_order_acquire) &&
           !service_.shutdown_requested()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        counters_.accepted.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(conns_mu_);
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        // Connection cap: answer with a structured overloaded error and
        // close, so a client sees *why* instead of a silent RST. conn_fds_
        // counts exactly the live connections (deregistered at close).
        if (cfg_.max_conns > 0 && conn_fds_.size() >= cfg_.max_conns) {
            counters_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
            send_line(fd, transport_error(ProtoCode::Overloaded, "overloaded",
                                          "connection limit reached; retry later"));
            ::close(fd);
            continue;
        }
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
    }
}

void Server::serve_connection(int fd) {
    counters_.active.fetch_add(1, std::memory_order_relaxed);
    std::string frame;
    bool discarding = false;
    char chunk[64 * 1024];
    for (;;) {
        // Idle/read deadline: wait for bytes with poll so a stalled client
        // (silent, or trickling then stopping mid-frame — the slow-loris
        // shape) is reaped after idle_timeout instead of holding a thread
        // and its partial frame forever. stop()'s shutdown() makes the fd
        // readable (EOF), so the poll also wakes for graceful shutdown.
        if (cfg_.idle_timeout.count() > 0) {
            pollfd pfd{fd, POLLIN, 0};
            const int ready =
                ::poll(&pfd, 1, static_cast<int>(cfg_.idle_timeout.count()));
            if (ready < 0) {
                if (errno == EINTR) continue;
                break;
            }
            if (ready == 0) {
                counters_.idle_reaped.fetch_add(1, std::memory_order_relaxed);
                break;
            }
        }
        ssize_t n;
        do {
            n = ::recv(fd, chunk, sizeof chunk, 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0) break;  // EOF, error, or stop()'s shutdown()
        bool client_gone = false;
        for (ssize_t i = 0; i < n; ++i) {
            const char c = chunk[i];
            if (discarding) {
                // Oversized frame: the error response was already written;
                // swallow bytes until the line ends, then resume normally.
                if (c == '\n') discarding = false;
                continue;
            }
            if (c != '\n') {
                frame.push_back(c);
                if (frame.size() > cfg_.max_frame_bytes) {
                    frame.clear();
                    frame.shrink_to_fit();
                    discarding = true;
                    if (!send_line(fd, transport_error(
                                           ProtoCode::Parse, "frame",
                                           "frame exceeds max_frame_bytes; rest of line "
                                           "discarded"))) {
                        client_gone = true;
                        break;
                    }
                }
                continue;
            }
            if (!frame.empty() && frame.back() == '\r') frame.pop_back();
            if (frame.empty()) continue;  // blank line: keepalive no-op
            const std::string response = service_.handle(frame);
            frame.clear();
            if (!send_line(fd, response)) {
                client_gone = true;
                break;
            }
        }
        if (client_gone) break;
    }
    // Deregister-then-close under the registry lock, so stop() can never
    // shutdown() a descriptor number the kernel already reused.
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                        conn_fds_.end());
    }
    ::close(fd);
    counters_.active.fetch_sub(1, std::memory_order_relaxed);
}

void Server::close_listener() {
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void Server::stop() {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (stopped_.load(std::memory_order_acquire)) return;
    stopping_.store(true, std::memory_order_release);

    // 1. Cancel in-flight runs; their responses are still written (each run
    //    stops at a work-item boundary with a Cancelled outcome).
    service_.begin_drain();

    // 2. Stop accepting.
    if (accept_thread_.joinable()) accept_thread_.join();
    close_listener();

    // 3. Wait (bounded) for in-flight requests to finish writing responses.
    const auto deadline = std::chrono::steady_clock::now() + cfg_.drain_deadline;
    while (service_.active_requests() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

    // 4. Unblock every connection reader and join.
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : conn_threads_) {
        if (t.joinable()) t.join();
    }
    conn_threads_.clear();

    stopped_.store(true, std::memory_order_release);
}

void Server::wait() {
    for (;;) {
        if (stopped_.load(std::memory_order_acquire)) return;
        if (service_.shutdown_requested() &&
            !stopping_.load(std::memory_order_acquire)) {
            stop();
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

}  // namespace seqlearn::server
