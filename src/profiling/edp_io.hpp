#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "trace/timeline.hpp"

namespace extradeep::profiling {

/// The in-memory form of one .edp file. It is the output of profiling one
/// application configuration once: the traces of all MPI ranks plus the
/// execution parameters that identify the configuration (a measurement point
/// P(x1, ..., xm)) and the repetition index. This is the equivalent of one
/// Nsight Systems report set, whether the simulator-backed Profiler or
/// anything else produced it.
struct ProfiledRun {
    std::map<std::string, double> params;  ///< e.g. {"x1": 8}
    int repetition = 0;
    std::vector<trace::RankTrace> ranks;
    /// Wall time of executing + profiling this run (for Fig. 8 accounting).
    double profiling_wall_time = 0.0;
};

/// EDP ("Extra-Deep Profile") is this library's on-disk profile format - the
/// substitute for Nsight Systems report exports. It is a versioned,
/// tab-separated text format, one file per profiled run, containing the
/// execution parameters, repetition index, and every rank's NVTX marks and
/// kernel events:
///
///   EDP<TAB>1
///   P<TAB>x1<TAB>8
///   REP<TAB>0
///   WALL<TAB>12.34
///   RANK<TAB>0
///   M<TAB>epoch_start<TAB>0<TAB>-1<TAB>train<TAB>0
///   E<TAB>EigenMetaKernel<TAB>CUDA kernel<TAB>0.1<TAB>0.02<TAB>53<TAB>0
///   ...
///   END
///
/// Kernel names must not contain tab/newline/carriage-return characters;
/// both write_edp and read_edp enforce this (a hand-edited name containing a
/// newline would desynchronise the line-based parser).
///
/// Numeric fields are validated at this boundary: NaN and infinity are
/// rejected everywhere, and values that are semantically non-negative
/// (times, durations, byte counts, visits, rank and repetition indices)
/// must be >= 0. Nothing downstream of read_edp ever sees a non-finite
/// metric.

/// How read_edp reacts to malformed input. See DESIGN.md, "EDP
/// error-handling contract". The enum itself lives in common/diagnostics so
/// every versioned format (EDP profiles, .edpm models) shares one contract.
using ParseMode = ::extradeep::ParseMode;

struct EdpReadOptions {
    ParseMode mode = ParseMode::Strict;
    /// Storage cap for collected diagnostics (counts keep accumulating).
    std::size_t max_diagnostics = DiagnosticLog::kDefaultCapacity;
};

/// Outcome of a tolerant (or strict) parse.
struct EdpReadResult {
    ProfiledRun run;
    DiagnosticLog diagnostics;

    /// True if no Error-severity diagnostic was recorded, i.e. the run as a
    /// whole is structurally sound (individual records may still have been
    /// skipped with warnings). Callers should treat ok() == false runs as
    /// quarantined: usable for inspection, not for modeling.
    bool ok() const { return !diagnostics.has_errors(); }
};

/// Serialises a profiled run. Throws InvalidArgumentError on names
/// containing tabs/newlines and Error if the stream write fails.
void write_edp(std::ostream& os, const ProfiledRun& run);

/// Parses a profiled run in strict mode; throws ParseError on malformed
/// input, including version mismatches, truncated files (missing END), and
/// trailing data after END.
ProfiledRun read_edp(std::istream& is);

/// Parses a profiled run under the given options. In Tolerant mode this
/// never throws on malformed content; problems are returned as diagnostics
/// instead. In Strict mode it behaves exactly like read_edp(is).
EdpReadResult read_edp(std::istream& is, const EdpReadOptions& options);

/// File-based convenience wrappers. Throw Error on I/O failure (in both
/// modes: an unopenable file is an environment problem, not dirty data).
void write_edp_file(const std::string& path, const ProfiledRun& run);
ProfiledRun read_edp_file(const std::string& path);
EdpReadResult read_edp_file(const std::string& path,
                            const EdpReadOptions& options);

}  // namespace extradeep::profiling
