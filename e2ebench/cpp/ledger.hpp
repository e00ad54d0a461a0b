#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// In-memory span and counter ledger of a traced run. Spans are recorded
/// by the benchmark itself around its calls into each layer's public API
/// (the program's own obs spans stay off), kept in memory, and summarised
/// into the per-layer metrics when the run ends. A disabled ledger records
/// nothing; its spans cost one branch. Single-threaded: spans open and
/// close on the thread that owns the ledger.
class Ledger {
public:
    explicit Ledger(bool enabled) : enabled_(enabled) {}

    Ledger(const Ledger&) = delete;
    Ledger& operator=(const Ledger&) = delete;

    bool enabled() const { return enabled_; }

    struct SpanRecord {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  ///< enclosing span, 0 for roots
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        double seconds() const {
            return static_cast<double>(end_ns - start_ns) * 1e-9;
        }
    };

    /// RAII span; nests under the innermost open span of the same ledger.
    class Span {
    public:
        Span(Ledger& ledger, std::string name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

    private:
        Ledger* ledger_ = nullptr;  ///< null when the ledger is disabled
        std::size_t index_ = 0;
        std::uint64_t saved_parent_ = 0;
    };

    /// Completed (and still open) spans in start order.
    const std::vector<SpanRecord>& spans() const { return spans_; }

    /// Durations in seconds of every completed span called `name`.
    std::vector<double> durations(const std::string& name) const;

    /// Per-layer metric values, keyed by metric name (set by workloads).
    void set(const std::string& metric, double value) {
        metrics_[metric] = value;
    }
    const std::map<std::string, double>& metrics() const { return metrics_; }

private:
    bool enabled_;
    std::uint64_t current_ = 0;
    std::vector<SpanRecord> spans_;
    std::map<std::string, double> metrics_;
};

}  // namespace e2ebench
