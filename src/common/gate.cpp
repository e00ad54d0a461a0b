#include "common/gate.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/json.hpp"

namespace extradeep::gate {

namespace {

bool rule_matches(const Rule& rule, const MetricRecord& record) {
    if (record.metric != rule.metric) {
        return false;
    }
    if (rule.case_name != "*" && rule.case_name != record.case_name) {
        return false;
    }
    if (rule.noise >= 0.0 && std::abs(rule.noise - record.noise) > 1e-12) {
        return false;
    }
    return true;
}

Violation bound_violation(Violation::Kind kind, std::size_t ri, std::size_t si,
                          double bound, const MetricRecord& r) {
    std::ostringstream msg;
    msg << r.case_name << " @ noise " << fmt::fixed(r.noise, 3) << ": "
        << r.metric << " = " << json::number(r.value)
        << (kind == Violation::Kind::BelowMin ? " < min " : " > max ")
        << json::number(bound);
    return {kind, ri, si, bound, msg.str()};
}

std::optional<double> number_member(const json::Value& entry, const char* key,
                                    const std::string& what) {
    const json::Value* v = entry.find(key);
    if (v == nullptr) {
        return std::nullopt;
    }
    if (v->kind != json::Value::Kind::Number) {
        throw ParseError(what + ": \"" + key + "\" must be a number");
    }
    return v->number;
}

}  // namespace

std::string bench_json(const std::string& schema,
                       const std::vector<MetricRecord>& records,
                       const std::vector<Member>& extra_members,
                       const Provenance& provenance) {
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": " << json::quote(schema) << ",\n";
    os << "  \"git_rev\": " << json::quote(provenance.git_rev) << ",\n";
    os << "  \"command\": [";
    for (std::size_t i = 0; i < provenance.command.size(); ++i) {
        os << (i == 0 ? "" : ", ") << json::quote(provenance.command[i]);
    }
    os << "],\n";
    for (const auto& [name, value] : extra_members) {
        os << "  " << json::quote(name) << ": " << value << ",\n";
    }
    os << "  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const MetricRecord& r = records[i];
        os << "    {\"case\": " << json::quote(r.case_name)
           << ", \"noise\": " << json::number(r.noise)
           << ", \"metric\": " << json::quote(r.metric)
           << ", \"value\": " << json::number(r.value)
           << ", \"seed\": " << r.seed << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::vector<Rule> parse_rules(const std::string& json_text,
                              const std::string& what) {
    const json::Value doc = json::parse(json_text, what);
    if (doc.kind != json::Value::Kind::Object) {
        throw ParseError(what + ": top level must be an object");
    }
    const json::Value* list = doc.find("thresholds");
    if (list == nullptr || list->kind != json::Value::Kind::Array) {
        throw ParseError(what + ": missing \"thresholds\" array");
    }
    std::vector<Rule> out;
    out.reserve(list->array.size());
    for (const json::Value& entry : list->array) {
        if (entry.kind != json::Value::Kind::Object) {
            throw ParseError(what + ": rule must be an object");
        }
        Rule rule;
        if (const json::Value* v = entry.find("case")) {
            if (v->kind != json::Value::Kind::String) {
                throw ParseError(what + ": \"case\" must be a string");
            }
            rule.case_name = v->string;
        }
        rule.noise = number_member(entry, "noise", what).value_or(-1.0);
        const json::Value* metric = entry.find("metric");
        if (metric == nullptr || metric->kind != json::Value::Kind::String ||
            metric->string.empty()) {
            throw ParseError(what + ": rule lacks a \"metric\" string");
        }
        rule.metric = metric->string;
        rule.min = number_member(entry, "min", what);
        rule.max = number_member(entry, "max", what);
        if (!rule.min && !rule.max) {
            throw ParseError(what + ": rule for metric '" + rule.metric +
                             "' has neither \"min\" nor \"max\"");
        }
        out.push_back(std::move(rule));
    }
    if (out.empty()) {
        throw ParseError(what + ": empty thresholds array");
    }
    return out;
}

Outcome check_rules(const std::vector<MetricRecord>& records,
                    const std::vector<Rule>& rules) {
    Outcome out;
    out.rules_checked = rules.size();
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
        const Rule& rule = rules[ri];
        std::size_t matched = 0;
        for (std::size_t si = 0; si < records.size(); ++si) {
            const MetricRecord& record = records[si];
            if (!rule_matches(rule, record)) {
                continue;
            }
            ++matched;
            if (rule.min && record.value < *rule.min) {
                out.violations.push_back(bound_violation(
                    Violation::Kind::BelowMin, ri, si, *rule.min, record));
            }
            if (rule.max && record.value > *rule.max) {
                out.violations.push_back(bound_violation(
                    Violation::Kind::AboveMax, ri, si, *rule.max, record));
            }
        }
        if (matched == 0) {
            out.violations.push_back(
                {Violation::Kind::Unmatched, ri, 0, 0.0,
                 "threshold for metric '" + rule.metric + "' (case " +
                     rule.case_name +
                     ") matched no record - the gate would be silently "
                     "disabled"});
        }
        out.records_matched += matched;
    }
    out.pass = out.violations.empty();
    return out;
}

}  // namespace extradeep::gate
