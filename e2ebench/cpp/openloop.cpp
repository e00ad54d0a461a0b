#include "openloop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <deque>

#include "common/error.hpp"
#include "host.hpp"
#include "serve/socket_util.hpp"

namespace e2ebench {

namespace {

constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

struct Conn {
    extradeep::serve::FdGuard fd;
    int lane = 0;
    std::string wbuf;
    std::size_t woff = 0;
    bool want_write = false;
    std::string rbuf;
    std::size_t inflight = kIdle;  ///< schedule index, kIdle when idle
};

void set_events(int ep, Conn& c, std::size_t id, bool want_write) {
    if (c.want_write == want_write) {
        return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    if (::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd.get(), &ev) != 0) {
        throw extradeep::Error("openloop: epoll_ctl failed");
    }
    c.want_write = want_write;
}

/// Writes as much of the connection's buffer as the socket takes.
void flush(int ep, Conn& c, std::size_t id) {
    while (c.woff < c.wbuf.size()) {
        const ssize_t n = ::send(c.fd.get(), c.wbuf.data() + c.woff,
                                 c.wbuf.size() - c.woff, MSG_NOSIGNAL);
        if (n > 0) {
            c.woff += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            throw extradeep::Error("openloop: send failed");
        }
    }
    if (c.woff == c.wbuf.size()) {
        c.wbuf.clear();
        c.woff = 0;
    }
    set_events(ep, c, id, !c.wbuf.empty());
}

}  // namespace

OpenLoopResult run_open_loop(const std::vector<ScheduledRequest>& schedule,
                             const OpenLoopOptions& options) {
    // Wake at due times, not up to the default 50 µs timer slack late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    OpenLoopResult result;
    result.outcomes.resize(schedule.size());
    result.send_lag_us.reserve(schedule.size());

    extradeep::serve::FdGuard ep(::epoll_create1(EPOLL_CLOEXEC));
    if (ep.get() < 0) {
        throw extradeep::Error("openloop: epoll_create1 failed");
    }
    std::vector<Conn> conns;
    std::vector<std::deque<std::size_t>> pending(options.lanes.size());
    std::vector<std::vector<std::size_t>> idle(options.lanes.size());
    for (std::size_t lane = 0; lane < options.lanes.size(); ++lane) {
        for (int i = 0; i < options.lanes[lane]; ++i) {
            Conn c;
            c.lane = static_cast<int>(lane);
            c.fd.reset(extradeep::serve::connect_to("127.0.0.1", options.port,
                                                    kStallTimeoutMs));
            const int one = 1;
            ::setsockopt(c.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            if (!extradeep::serve::set_nonblocking(c.fd.get())) {
                throw extradeep::Error("openloop: cannot make socket non-blocking");
            }
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u64 = conns.size();
            if (::epoll_ctl(ep.get(), EPOLL_CTL_ADD, c.fd.get(), &ev) != 0) {
                throw extradeep::Error("openloop: epoll_ctl add failed");
            }
            idle[lane].push_back(conns.size());
            conns.push_back(std::move(c));
        }
    }

    std::size_t next = 0;
    std::size_t released = 0;
    std::size_t answered = 0;
    std::uint64_t now = now_ns();
    std::uint64_t last_progress = now;
    std::uint64_t next_sample = now;
    std::uint64_t next_tick = now;
    const std::uint64_t stall_ns =
        static_cast<std::uint64_t>(kStallTimeoutMs) * 1'000'000ULL;
    const auto dispatch = [&](std::size_t lane) {
        while (!pending[lane].empty() && !idle[lane].empty()) {
            const std::size_t idx = pending[lane].front();
            pending[lane].pop_front();
            const std::size_t id = idle[lane].back();
            idle[lane].pop_back();
            Conn& c = conns[id];
            c.wbuf.append(schedule[idx].line);
            c.wbuf += '\n';
            c.inflight = idx;
            result.outcomes[idx].sent_ns = now_ns();
            flush(ep.get(), c, id);
        }
    };
    epoll_event events[16];
    char buf[1 << 16];

    while (next < schedule.size() || answered < released) {
        now = now_ns();
        while (next < schedule.size() && schedule[next].due_ns <= now) {
            const auto lane = static_cast<std::size_t>(schedule[next].lane);
            pending.at(lane).push_back(next);
            result.send_lag_us.push_back(
                static_cast<double>(now - schedule[next].due_ns) * 1e-3);
            if (answered == released) {
                last_progress = now;
            }
            ++released;
            ++next;
            dispatch(lane);
        }
        if (options.on_tick && options.tick_ns > 0 && now >= next_tick) {
            options.on_tick(now);
            next_tick = now + options.tick_ns;
        }
        if (now >= next_sample) {
            result.backlog_t_ns.push_back(now);
            result.backlog.push_back(static_cast<double>(released - answered));
            next_sample += kBacklogSampleNs;
        }
        if (answered < released && now - last_progress > stall_ns) {
            result.stalled = true;
            break;
        }

        std::uint64_t wake = next_sample;
        if (next < schedule.size()) {
            wake = std::min(wake, schedule[next].due_ns);
        }
        if (options.on_tick && options.tick_ns > 0) {
            wake = std::min(wake, next_tick);
        }
        const std::uint64_t wait_ns = wake > now ? wake - now : 0;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000ULL);
        ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000ULL);
        const int n = ::epoll_pwait2(ep.get(), events, 16, &ts, nullptr);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw extradeep::Error("openloop: epoll_pwait2 failed");
        }
        for (int e = 0; e < n; ++e) {
            const std::size_t id = events[e].data.u64;
            Conn& c = conns[id];
            if ((events[e].events & EPOLLOUT) != 0) {
                flush(ep.get(), c, id);
            }
            if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) {
                continue;
            }
            for (;;) {
                const ssize_t r = ::recv(c.fd.get(), buf, sizeof(buf), 0);
                if (r > 0) {
                    c.rbuf.append(buf, static_cast<std::size_t>(r));
                    continue;
                }
                if (r < 0 && errno == EINTR) {
                    continue;
                }
                if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                throw extradeep::Error("openloop: connection closed by peer");
            }
            const std::size_t nl = c.rbuf.find('\n');
            if (nl == std::string::npos) {
                continue;
            }
            if (c.inflight == kIdle || nl + 1 != c.rbuf.size()) {
                throw extradeep::Error("openloop: unsolicited response");
            }
            RequestOutcome& out = result.outcomes[c.inflight];
            out.done_ns = now_ns();
            out.answered = true;
            out.response.assign(c.rbuf, 0, nl);
            if (!out.response.empty() && out.response.back() == '\r') {
                out.response.pop_back();
            }
            c.rbuf.clear();
            const std::size_t idx = c.inflight;
            c.inflight = kIdle;
            ++answered;
            last_progress = out.done_ns;
            idle[static_cast<std::size_t>(c.lane)].push_back(id);
            if (options.on_response) {
                options.on_response(idx, out);
            }
            dispatch(static_cast<std::size_t>(c.lane));
        }
    }
    return result;
}

}  // namespace e2ebench
