#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic clock (steady_clock) in nanoseconds and seconds.
std::uint64_t now_ns();
double now_s();

/// Peak resident set size of this process so far (ru_maxrss), in MiB.
double peak_rss_mb();
/// Current resident set size (VmRSS), in MiB.
double current_rss_mb();
/// User + system CPU time of this process so far (CLOCK_PROCESS_CPUTIME_ID,
/// nanosecond resolution; time the host stole from the vCPU is not in it),
/// in seconds.
double cpu_seconds();

/// Threads the host offers this process (hardware_concurrency, >= 1). The
/// load budget of every workload: daemon workers, event loop, refit pool
/// and generator together never exceed it.
int host_threads();

/// CMake build type and compiler this program was built with.
const char* build_type();
const char* compiler();
/// True for an optimized build with assertions compiled out.
bool release_build();

/// Shortest decimal that reads back to the same double (std::to_chars);
/// every digit of a measured value is kept.
std::string json_double(double v);
std::string json_string(const std::string& s);

/// Pure-CPU spin-loop throughput at 1..max_threads concurrent threads, in
/// million loop iterations per second per thread; each point runs for
/// `seconds`. A loaded host shows as per-thread throughput falling with
/// the thread count, independently of the program under test.
std::vector<double> spin_calibration(int max_threads, double seconds);

/// Provenance header of one result: where and how the numbers were made.
struct Provenance {
    std::string git_rev;     ///< revision of the checkout, "unknown" if none
    std::string source_digest;  ///< sha256 of src/ as computed by run.py
    std::string command;     ///< the exact command line of the run
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::vector<double> spin_mops_per_thread;
};

/// One-line JSON rendering (schema e2ebench-provenance/1).
std::string provenance_json(const Provenance& p);

/// Runs `argv` as a child process, waits for it, and returns its standard
/// output; throws extradeep::Error unless it exits with status 0.
std::string run_child(const std::vector<std::string>& argv);

}  // namespace e2ebench
