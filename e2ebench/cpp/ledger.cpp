#include "ledger.hpp"

#include "host.hpp"

namespace e2ebench {

Ledger::Span::Span(Ledger& ledger, std::string name) {
    if (!ledger.enabled_) {
        return;
    }
    ledger_ = &ledger;
    index_ = ledger.spans_.size();
    saved_parent_ = ledger.current_;
    SpanRecord rec;
    rec.name = std::move(name);
    rec.id = index_ + 1;
    rec.parent = ledger.current_;
    rec.start_ns = now_ns();
    ledger.spans_.push_back(std::move(rec));
    ledger.current_ = index_ + 1;
}

Ledger::Span::~Span() {
    if (ledger_ == nullptr) {
        return;
    }
    ledger_->spans_[index_].end_ns = now_ns();
    ledger_->current_ = saved_parent_;
}

std::vector<double> Ledger::durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
        if (s.name == name && s.end_ns != 0) {
            out.push_back(s.seconds());
        }
    }
    return out;
}

}  // namespace e2ebench
