#include "eval/report.hpp"

#include "common/format.hpp"
#include "common/table.hpp"

namespace extradeep::eval {

namespace {

void add_record(std::vector<gate::MetricRecord>& out, const CaseScore& s,
                const std::string& metric, double value) {
    out.push_back({s.case_name, s.noise, metric, value, s.seed});
}

}  // namespace

std::vector<gate::MetricRecord> to_records(const CaseScore& s) {
    std::vector<gate::MetricRecord> out;
    add_record(out, s, "exponent_recovery", s.exact_recovery ? 1.0 : 0.0);
    add_record(out, s, "smape_in_range", s.smape_in_range);
    add_record(out, s, "extrap_error_2x", s.extrap_error[0]);
    add_record(out, s, "extrap_error_4x", s.extrap_error[1]);
    add_record(out, s, "extrap_error_8x", s.extrap_error[2]);
    add_record(out, s, "pi_coverage", s.pi_coverage);
    if (s.cost_smape >= 0.0) {
        add_record(out, s, "cost_smape", s.cost_smape);
    }
    add_record(out, s, "fit_seconds", s.fit_seconds);
    add_record(out, s, "hypotheses_searched",
               static_cast<double>(s.hypotheses_searched));
    add_record(out, s, "hypotheses_per_sec", s.hypotheses_per_sec);
    return out;
}

std::vector<gate::MetricRecord> to_records(
    const std::vector<CaseScore>& scores) {
    std::vector<gate::MetricRecord> out;
    for (const auto& s : scores) {
        const auto records = to_records(s);
        out.insert(out.end(), records.begin(), records.end());
    }
    return out;
}

std::string render_table(const std::vector<CaseScore>& scores) {
    Table table({"case", "noise", "recovered", "SMAPE in-range", "err 2x",
                 "err 4x", "err 8x", "PI cover", "cost SMAPE", "hyp/s"});
    for (const auto& s : scores) {
        table.add_row({s.case_name, fmt::fixed(s.noise, 3),
                       s.exact_recovery ? "yes" : "NO",
                       fmt::percent(s.smape_in_range),
                       fmt::percent(s.extrap_error[0]),
                       fmt::percent(s.extrap_error[1]),
                       fmt::percent(s.extrap_error[2]),
                       fmt::fixed(s.pi_coverage, 2),
                       s.cost_smape >= 0.0 ? fmt::percent(s.cost_smape) : "-",
                       fmt::fixed(s.hypotheses_per_sec, 0)});
    }
    return table.to_string();
}

}  // namespace extradeep::eval
