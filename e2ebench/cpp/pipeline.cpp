#include "pipeline.hpp"

#include <array>
#include <optional>
#include <sstream>

#include "analysis/bottleneck.hpp"
#include "analysis/config_search.hpp"
#include "analysis/cost.hpp"
#include "analysis/speedup.hpp"
#include "extradeep/ingest.hpp"
#include "extradeep/models.hpp"
#include "serve/serialize.hpp"

using namespace extradeep;

namespace e2ebench {

PassOutput run_pass(const std::vector<std::string>& paths,
                    const PipelineOptions& options, Ledger& ledger) {
    const Ledger::Span pass_span(ledger, "pass");
    PassOutput out;
    const ExperimentSpec& spec = options.spec;

    IngestOptions ingest_opts;
    ingest_opts.streaming = options.streaming;
    ingest_opts.num_threads = options.threads;
    ingest_opts.aggregation.discard_warmup_epochs =
        spec.sampling.discard_warmup_epochs;
    IngestResult ingested;
    {
        const Ledger::Span span(ledger, "ingest");
        ingested = ingest_edp_files(paths, ingest_opts);
    }
    out.runs_total = ingested.runs_total;
    out.runs_kept = ingested.runs_kept;
    out.configs_kept = ingested.configs_kept;
    out.diagnostics = ingested.diagnostics.total();
    if (!ingested.modelable()) {
        return out;
    }

    ExperimentResult result;
    std::array<std::vector<double>, trace::kPhaseCount> phase_train;
    std::array<std::vector<double>, trace::kPhaseCount> phase_val;
    std::vector<double> total_train;
    std::vector<double> total_val;
    {
        const Ledger::Span span(ledger, "derive");
        result.step_math_fn =
            make_step_math_fn(spec.dataset, spec.strategy,
                              spec.model_parallel_degree, spec.scaling,
                              spec.batch_per_worker);
        result.data = std::move(ingested.data);
        out.modelable_kernels = result.data.modelable_kernels().size();
        for (const auto& config : result.data.configs()) {
            const int ranks = static_cast<int>(config.params.at("x1"));
            const parallel::StepMath sm = result.step_math_fn(ranks);
            result.step_math[ranks] = sm;
            result.modeling_xs.push_back(static_cast<double>(ranks));
            result.epoch_time_values.push_back(aggregation::derived_epoch_total(
                config, sm, aggregation::Metric::Time));
            double train_sum = 0.0;
            double val_sum = 0.0;
            for (int p = 0; p < trace::kPhaseCount; ++p) {
                const auto phase = static_cast<trace::Phase>(p);
                const double t = config.phase_metric(
                    phase, aggregation::Metric::Time, true);
                const double v = config.phase_metric(
                    phase, aggregation::Metric::Time, false);
                phase_train[p].push_back(t);
                phase_val[p].push_back(v);
                train_sum += t;
                val_sum += v;
            }
            total_train.push_back(train_sum);
            total_val.push_back(val_sum);
        }
    }

    modeling::FitOptions fit_opts;
    fit_opts.space.max_terms = options.max_terms;
    fit_opts.num_threads = options.threads;
    const modeling::ModelGenerator generator(fit_opts);

    std::vector<KernelModelEntry> kernels;
    {
        const Ledger::Span span(ledger, "model_kernels");
        kernels = model_kernels(result.data, result.step_math_fn,
                                options.kernel_metrics, generator);
    }
    std::ostringstream kernel_text;
    for (const KernelModelEntry& k : kernels) {
        kernel_text << k.name << '\t' << aggregation::metric_name(k.metric)
                    << '\t' << k.model.to_string() << '\n';
        out.kernel_fits += 2;
        out.hypotheses += static_cast<std::size_t>(
            k.model.train_step_model().quality().hypotheses_searched +
            k.model.val_step_model().quality().hypotheses_searched);
    }
    out.kernel_models = kernel_text.str();

    {
        const Ledger::Span span(ledger, "fit_app");
        const auto fit = [&](const std::vector<double>& ys) {
            const Ledger::Span fit_span(ledger, "fit");
            return generator.fit(result.modeling_xs, ys);
        };
        result.epoch_time = EpochModel(fit(total_train), fit(total_val),
                                       result.step_math_fn);
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            result.phase_time[p] = EpochModel(fit(phase_train[p]),
                                              fit(phase_val[p]),
                                              result.step_math_fn);
        }
    }
    out.app_fits = 2 * (1 + trace::kPhaseCount);
    out.hypotheses += static_cast<std::size_t>(
        result.epoch_time.train_step_model().quality().hypotheses_searched +
        result.epoch_time.val_step_model().quality().hypotheses_searched);
    for (const EpochModel& m : result.phase_time) {
        out.hypotheses += static_cast<std::size_t>(
            m.train_step_model().quality().hypotheses_searched +
            m.val_step_model().quality().hypotheses_searched);
    }

    {
        const Ledger::Span span(ledger, "analysis");
        const std::vector<double>& xs = result.modeling_xs;
        const std::vector<double>& ts = result.epoch_time_values;
        std::ostringstream analysis_text;
        for (const double v : analysis::speedups(ts)) {
            analysis_text << v << ' ';
        }
        for (const double v : analysis::efficiencies(xs, ts)) {
            analysis_text << v << ' ';
        }
        analysis_text << analysis::model_speedup(xs, ts, generator).to_string()
                      << analysis::model_efficiency(xs, ts, generator).to_string()
                      << analysis::model_cost(xs, ts, analysis::core_hours_cost(1),
                                              generator)
                             .to_string();
        const EpochModel& epoch = result.epoch_time;
        const auto search = analysis::find_cost_effective_config(
            [&epoch](double r) { return epoch.evaluate(r); },
            {2, 4, 8, 16, 32, 64}, analysis::core_hours_cost(1), {},
            spec.scaling);
        analysis_text << (search.best ? *search.best : 99);
        std::vector<analysis::NamedModel> named;
        for (const KernelModelEntry& k : kernels) {
            if (k.metric == aggregation::Metric::Time) {
                named.push_back({k.name, k.model.train_step_model()});
            }
        }
        for (const auto& r : analysis::rank_by_growth(named, 64.0)) {
            analysis_text << r.name << r.growth;
        }
        out.analysis_calls = 7;
        out.kernel_models += analysis_text.str() + '\n';
    }

    const serve::ServableModel servable =
        serve::make_servable(spec, result, options.model_name);
    {
        const Ledger::Span span(ledger, "write_edpm");
        std::ostringstream os;
        serve::write_edpm(os, servable);
        out.edpm = os.str();
    }
    std::optional<serve::ServableModel> back;
    {
        const Ledger::Span span(ledger, "read_edpm");
        std::istringstream is(out.edpm);
        back = serve::read_edpm(is);
    }
    std::ostringstream again;
    serve::write_edpm(again, *back);
    out.roundtrip_ok = again.str() == out.edpm;
    if (options.keep_data) {
        out.data = std::move(result.data);
    }
    return out;
}

}  // namespace e2ebench
