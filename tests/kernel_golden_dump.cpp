// Writes every kernel model of one small simulated experiment as hexfloat
// text, for the cross-version kernel-path golden (tests/kernel_golden.cmake):
// model_kernels in the 2-term search space for time, bytes and visits, with
// each per-step model's constant, terms, quality, residual variance and
// unscaled covariance. Usage: kernel_golden_dump <out.txt>

#include <fstream>
#include <iostream>

#include "common/format.hpp"
#include "extradeep/models.hpp"
#include "extradeep/runner.hpp"

using namespace extradeep;

namespace {

void write_model(std::ostream& os, const char* key,
                 const modeling::PerformanceModel& pm) {
    os << "MODEL\t" << key << '\n';
    os << "CONST\t" << fmt::hexfloat(pm.constant()) << '\n';
    const modeling::ModelQuality& q = pm.quality();
    os << "QUALITY\t" << fmt::hexfloat(q.fit_smape) << '\t'
       << fmt::hexfloat(q.cv_smape) << '\t' << fmt::hexfloat(q.r_squared)
       << '\t' << fmt::hexfloat(q.rss) << '\t' << q.hypotheses_searched
       << '\n';
    for (const auto& term : pm.terms()) {
        os << "TERM\t" << fmt::hexfloat(term.coefficient) << '\t'
           << term.factors.size();
        for (const auto& f : term.factors) {
            os << '\t' << f.param << '\t' << fmt::hexfloat(f.poly_exp) << '\t'
               << f.log_exp;
        }
        os << '\n';
    }
    if (pm.has_fit_info()) {
        const linalg::Matrix& cov = pm.cov_unscaled();
        os << "FIT\t" << pm.degrees_of_freedom() << '\t'
           << fmt::hexfloat(pm.residual_variance()) << '\t' << cov.rows()
           << '\n';
        for (std::size_t r = 0; r < cov.rows(); ++r) {
            os << "COV";
            for (std::size_t c = 0; c < cov.cols(); ++c) {
                os << '\t' << fmt::hexfloat(cov(r, c));
            }
            os << '\n';
        }
    }
    os << "ENDMODEL\n";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::cerr << "usage: kernel_golden_dump <out.txt>\n";
        return 2;
    }
    ExperimentSpec spec;
    spec.repetitions = 2;
    spec.seed = 3;
    const ExperimentResult result = ExperimentRunner(spec).run();

    modeling::FitOptions options;
    options.space.max_terms = 2;
    const auto entries = model_kernels(
        result.data, result.step_math_fn,
        {aggregation::Metric::Time, aggregation::Metric::Bytes,
         aggregation::Metric::Visits},
        modeling::ModelGenerator(options));

    std::ofstream os(argv[1]);
    for (const KernelModelEntry& e : entries) {
        os << "KERNEL\t" << e.name << '\t' << aggregation::metric_name(e.metric)
           << '\n';
        write_model(os, "train", e.model.train_step_model());
        write_model(os, "val", e.model.val_step_model());
    }
    os << "END\n";
    os.close();
    if (!os) {
        std::cerr << "kernel_golden_dump: cannot write " << argv[1] << '\n';
        return 1;
    }
    return 0;
}
