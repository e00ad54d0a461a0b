#include "common/cli.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace extradeep::cli {

std::string Args::value(const std::string& flag) {
    if (i_ >= argc_) {
        throw InvalidArgumentError(flag + " requires a value");
    }
    return argv_[i_++];
}

std::vector<double> parse_noise_list(const std::string& arg) {
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        const std::size_t comma = arg.find(',', pos);
        const std::string token =
            arg.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
        if (token.empty()) {
            throw InvalidArgumentError("--noise: empty entry in '" + arg + "'");
        }
        std::size_t used = 0;
        const double v = std::stod(token, &used);
        if (used != token.size() || v < 0.0) {
            throw InvalidArgumentError("--noise: bad sigma '" + token + "'");
        }
        out.push_back(v);
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return out;
}

std::string read_text_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot read '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string git_revision() {
    std::string rev;
    if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), p) != nullptr) {
            rev = buf;
            while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
                rev.pop_back();
            }
        }
        pclose(p);
    }
    return rev.empty() ? "unknown" : rev;
}

bool Report::parse_flag(const std::string& arg, Args& args) {
    if (arg == "--out") {
        out_path = args.value(arg);
    } else if (arg == "--thresholds") {
        thresholds_path = args.value(arg);
    } else {
        return false;
    }
    return true;
}

int finish(const Report& report,
           const std::vector<gate::MetricRecord>& records,
           const std::vector<gate::Member>& extra_members) {
    if (!report.out_path.empty()) {
        const std::string doc =
            gate::bench_json(report.schema, records, extra_members,
                             {git_revision(), report.command});
        std::ofstream out(report.out_path, std::ios::binary);
        if (!out || !(out << doc)) {
            throw Error("cannot write '" + report.out_path + "'");
        }
        std::printf("wrote %zu records to %s\n", records.size(),
                    report.out_path.c_str());
    }
    if (report.thresholds_path.empty()) {
        return 0;
    }
    const std::vector<gate::Rule> rules = gate::parse_rules(
        read_text_file(report.thresholds_path), report.thresholds_path);
    const gate::Outcome outcome = gate::check_rules(records, rules);
    std::printf("gate: %zu rules, %zu records matched\n",
                outcome.rules_checked, outcome.records_matched);
    if (!outcome.pass) {
        for (const gate::Violation& v : outcome.violations) {
            std::fprintf(stderr, "GATE VIOLATION: %s\n", v.message.c_str());
        }
        std::fprintf(stderr, "%s FAILED (%zu violations)\n",
                     report.gate_name.c_str(), outcome.violations.size());
        return 1;
    }
    std::printf("%s passed\n", report.gate_name.c_str());
    return 0;
}

}  // namespace extradeep::cli
