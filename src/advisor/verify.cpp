#include "advisor/verify.hpp"

#include <cmath>
#include <sstream>

#include "advisor/ground_truth.hpp"
#include "advisor/whatif.hpp"
#include "common/format.hpp"
#include "extradeep/runner.hpp"

namespace extradeep::advisor {

namespace {

struct VerifyCase {
    std::string name;
    ExperimentSpec spec;
};

std::vector<VerifyCase> make_cases(const VerifyOptions& options) {
    ExperimentSpec base;
    base.seed = options.seed;
    base.fit_threads = options.fit_threads;
    base.repetitions = 3;
    std::vector<VerifyCase> cases;
    cases.push_back({"cifar10-deep-weak", base});
    if (!options.quick) {
        ExperimentSpec strong = base;
        strong.scaling = parallel::ScalingMode::Strong;
        cases.push_back({"cifar10-deep-strong", strong});
        ExperimentSpec jureca = base;
        jureca.system = hw::SystemSpec::jureca();
        cases.push_back({"cifar10-jureca-weak", jureca});
    }
    return cases;
}

struct ScenarioRow {
    WhatIfResult pred;
    GroundTruth truth;
};

/// Relative saving error [%], floored at 2 % of the baseline epoch time so
/// near-zero true savings do not blow the ratio up.
double saving_err_pct(const ScenarioRow& row) {
    const double denom = std::max(std::fabs(row.truth.saving),
                                  0.02 * row.truth.base_time);
    return 100.0 * std::fabs(row.pred.saving - row.truth.saving) / denom;
}

bool intervals_disjoint(const WhatIfResult& a, const WhatIfResult& b) {
    return a.lower > b.upper || b.lower > a.upper;
}

}  // namespace

VerifyOutcome run_verify(const VerifyOptions& options) {
    const int reps = options.repetitions > 0 ? options.repetitions : 5;
    const std::vector<int> eval_ranks = {8, 16};
    VerifyOutcome out;
    std::ostringstream table;
    table << "what-if verification (reps=" << reps << ", seed="
          << options.seed << ")\n";

    for (const VerifyCase& vc : make_cases(options)) {
        const ExperimentRunner runner(vc.spec);
        const ExperimentResult result = runner.run();
        const ModelSet ms = model_set_from(vc.spec, result);

        for (const int ranks : eval_ranks) {
            const double x = static_cast<double>(ranks);
            const sim::Workload workload = runner.workload_for(ranks);
            std::vector<ScenarioRow> rows;
            for (const std::string& spec : default_portfolio()) {
                const Scenario sc = parse_scenario(spec);
                ScenarioRow row;
                row.pred = evaluate_whatif(ms, x, sc);
                row.truth =
                    simulate_saving(workload, sc, reps, options.seed);
                rows.push_back(std::move(row));
            }

            const std::string point =
                vc.name + "/x=" + std::to_string(ranks);
            table << "  " << point << " (base true="
                  << fmt::shortest(rows.front().truth.base_time) << " s)\n";
            std::size_t covered = 0;
            for (const ScenarioRow& row : rows) {
                const double err = saving_err_pct(row);
                const bool cover = row.truth.saving >= row.pred.lower &&
                                   row.truth.saving <= row.pred.upper;
                covered += cover ? 1 : 0;
                out.records.push_back(gate::MetricRecord{
                    point + "/" + row.pred.spec, 0.0, "saving_err_pct", err,
                    options.seed});
                table << "    " << row.pred.spec << ": pred="
                      << fmt::shortest(row.pred.saving) << " ["
                      << fmt::shortest(row.pred.lower) << ", "
                      << fmt::shortest(row.pred.upper) << "] true="
                      << fmt::shortest(row.truth.saving) << " err="
                      << fmt::shortest(err) << "%"
                      << (cover ? "" : " (outside interval)") << "\n";
            }

            // Ranking concordance over pairs the advisor claims to decide
            // (disjoint prediction intervals). Overlapping pairs are ties by
            // contract and never counted against the advisor.
            std::size_t decided = 0;
            std::size_t concordant = 0;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                for (std::size_t j = i + 1; j < rows.size(); ++j) {
                    if (!intervals_disjoint(rows[i].pred, rows[j].pred)) {
                        continue;
                    }
                    ++decided;
                    const double dp =
                        rows[i].pred.saving - rows[j].pred.saving;
                    const double dt =
                        rows[i].truth.saving - rows[j].truth.saving;
                    if ((dp > 0.0 && dt > 0.0) || (dp < 0.0 && dt < 0.0)) {
                        ++concordant;
                    }
                }
            }
            const double agreement =
                decided == 0
                    ? 1.0
                    : static_cast<double>(concordant) /
                          static_cast<double>(decided);
            out.records.push_back(gate::MetricRecord{
                point, 0.0, "ranking_agreement", agreement, options.seed});
            out.records.push_back(gate::MetricRecord{
                point, 0.0, "interval_coverage",
                static_cast<double>(covered) /
                    static_cast<double>(rows.size()),
                options.seed});
            table << "    ranking_agreement=" << fmt::shortest(agreement)
                  << " (" << concordant << "/" << decided
                  << " decided pairs), interval_coverage="
                  << fmt::shortest(static_cast<double>(covered) /
                                   static_cast<double>(rows.size()))
                  << "\n";
        }
    }
    out.table = table.str();
    return out;
}

}  // namespace extradeep::advisor
