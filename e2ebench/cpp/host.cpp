#include "host.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"

extern char** environ;

namespace e2ebench {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double peak_rss_mb() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double current_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(4096, '\n');
    }
    return 0.0;
}

double cpu_seconds() {
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
        throw extradeep::Error("e2ebench: no process CPU clock");
    }
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

int host_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

const char* build_type() { return E2EBENCH_BUILD_TYPE; }
const char* compiler() { return E2EBENCH_COMPILER; }

bool release_build() {
#ifdef NDEBUG
    return std::string(E2EBENCH_BUILD_TYPE) == "Release";
#else
    return false;
#endif
}

std::string json_double(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
    return extradeep::json::quote(s);
}

namespace {

/// A dependent multiply-add chain the compiler cannot fold or vectorise.
std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return x;
}

}  // namespace

std::vector<double> spin_calibration(int max_threads, double seconds) {
    // Size one chunk at ~1 ms on this host, then run chunks until the
    // deadline on every thread of the point.
    std::uint64_t chunk = 1u << 16;
    for (;;) {
        const double t0 = now_s();
        volatile std::uint64_t sink = spin(chunk, 7);
        (void)sink;
        if (now_s() - t0 >= 1e-3 || chunk >= (1ULL << 32)) {
            break;
        }
        chunk *= 2;
    }
    std::vector<double> out;
    for (int t = 1; t <= max_threads; ++t) {
        std::atomic<std::uint64_t> total{0};
        std::atomic<std::uint64_t> sink{0};
        const double start = now_s();
        const double deadline = start + seconds;
        std::vector<std::thread> threads;
        for (int i = 0; i < t; ++i) {
            threads.emplace_back([&, i] {
                std::uint64_t done = 0;
                std::uint64_t acc = 0;
                while (now_s() < deadline) {
                    acc ^= spin(chunk, static_cast<std::uint64_t>(i) + done);
                    done += chunk;
                }
                total += done;
                sink ^= acc;
            });
        }
        for (std::thread& th : threads) {
            th.join();
        }
        const double elapsed = now_s() - start;
        out.push_back(static_cast<double>(total.load()) / elapsed / 1e6 /
                      static_cast<double>(t));
    }
    return out;
}

namespace {

std::string cpu_model() {
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

}  // namespace

std::string provenance_json(const Provenance& p) {
    std::string spin = "[";
    for (std::size_t i = 0; i < p.spin_mops_per_thread.size(); ++i) {
        spin += i == 0 ? "" : ",";
        spin += json_double(p.spin_mops_per_thread[i]);
    }
    spin += "]";
    return "{\"schema\":\"e2ebench-provenance/1\",\"git_rev\":" +
           json_string(p.git_rev) +
           ",\"source_digest\":" + json_string(p.source_digest) +
           ",\"build_type\":" + json_string(build_type()) +
           ",\"compiler\":" + json_string(compiler()) +
           ",\"nproc\":" + std::to_string(host_threads()) +
           ",\"cpu_model\":" + json_string(cpu_model()) +
           ",\"workload\":" + json_string(p.workload) +
           ",\"seed\":" + std::to_string(p.seed) +
           ",\"seconds\":" + std::to_string(p.seconds) +
           ",\"trace\":" + (p.trace ? "true" : "false") +
           ",\"command\":" + json_string(p.command) +
           ",\"spin_mops_per_thread\":" + spin + "}";
}

std::string run_child(const std::vector<std::string>& argv) {
    int fds[2];
    if (::pipe(fds) != 0) {
        throw extradeep::Error("run_child: pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> cargv;
    for (const std::string& a : argv) {
        cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, argv[0].c_str(), &actions, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw extradeep::Error("run_child: cannot spawn " + argv[0]);
    }
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw extradeep::Error("run_child: " + argv[1] + " failed");
    }
    return out;
}

}  // namespace e2ebench
