#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace extradeep::gate {

/// The one report path of every regression harness (eval accuracy, perf
/// throughput, what-if advisor, fleet drift, serve load, plan budget): one
/// record type, one BENCH_*.json writer and one threshold dialect. Rules
/// match records on metric, case (wildcard "*") and noise (negative = any);
/// a rule that matches no record is itself a violation, so a renamed metric
/// or removed case cannot silently disable its threshold.

/// One machine-readable data point. The (case, noise, metric, value, seed)
/// tuple is the stable record layout of every BENCH_*.json file; harnesses
/// without a noise or seed dimension leave the defaults.
struct MetricRecord {
    std::string case_name;
    double noise = 0.0;
    std::string metric;
    double value = 0.0;
    std::uint64_t seed = 1;
};

/// A harness-specific top-level BENCH member: its name and its already
/// rendered JSON value.
using Member = std::pair<std::string, std::string>;

/// Where a BENCH file came from.
struct Provenance {
    std::string git_rev = "unknown";
    std::vector<std::string> command;  ///< the argv that produced the file
};

/// Renders a BENCH_*.json document:
///   {"schema": "<schema>", "git_rev": "...", "command": [...],
///    <extra members>, "records": [...]}
/// The schema tag names the producing harness (e.g. extradeep-eval/1).
/// Numbers are rendered locale-independently; a non-finite value throws
/// InvalidArgumentError rather than being written as 'nan'.
std::string bench_json(const std::string& schema,
                       const std::vector<MetricRecord>& records,
                       const std::vector<Member>& extra_members,
                       const Provenance& provenance);

/// One threshold rule. `case_name` may be "*" (any case); `noise` may be
/// negative (any noise level). Every parsed rule sets min, max or both.
struct Rule {
    std::string case_name = "*";
    double noise = -1.0;
    std::string metric;
    std::optional<double> min;
    std::optional<double> max;
};

/// Parses a thresholds document:
///   {"thresholds": [{"case": "*", "noise": 0.0,
///                    "metric": "exponent_recovery", "min": 1.0}, ...]}
/// "case" and "noise" are optional (wildcards). Throws ParseError, prefixed
/// with `what`, on malformed JSON, a missing or empty "thresholds" array, a
/// rule without a metric string, non-number bounds, or a rule with neither
/// "min" nor "max".
std::vector<Rule> parse_rules(const std::string& json_text,
                              const std::string& what = "thresholds JSON");

/// A gate violation: which rule, which record (meaningless for Unmatched),
/// the breached bound, and the human-readable message the CLIs print.
struct Violation {
    enum class Kind { BelowMin, AboveMax, Unmatched };
    Kind kind = Kind::Unmatched;
    std::size_t rule = 0;
    std::size_t record = 0;
    double bound = 0.0;
    std::string message;
};

struct Outcome {
    bool pass = true;
    std::size_t rules_checked = 0;
    /// Sum over rules of the number of records each rule matched.
    std::size_t records_matched = 0;
    std::vector<Violation> violations;
};

/// Checks every rule against every record. Iteration is rule-major and
/// record-minor, and a record breaching both bounds yields BelowMin before
/// AboveMax, so violation order is stable. A rule that matched no record
/// yields one Unmatched violation.
Outcome check_rules(const std::vector<MetricRecord>& records,
                    const std::vector<Rule>& rules);

}  // namespace extradeep::gate
