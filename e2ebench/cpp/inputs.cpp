#include "inputs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fleet/continuous.hpp"
#include "serve/query.hpp"
#include "serve/serialize.hpp"
#include "trace/kernel.hpp"

namespace fs = std::filesystem;
using namespace extradeep;

namespace e2ebench {

namespace {

void append_double(std::string& out, double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void append_int(std::string& out, long long v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

const char* mark_kind(trace::NvtxMark::Kind k) {
    switch (k) {
        case trace::NvtxMark::Kind::EpochStart: return "epoch_start";
        case trace::NvtxMark::Kind::EpochEnd: return "epoch_end";
        case trace::NvtxMark::Kind::StepStart: return "step_start";
        case trace::NvtxMark::Kind::StepEnd: return "step_end";
    }
    throw Error("e2ebench: unknown mark kind");
}

std::string slug(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
            out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
    }
    return out;
}

profiling::ProfiledRun profile_run(const ExperimentRunner& runner, int ranks,
                                   int repetition) {
    const profiling::Profiler profiler(runner.spec().sampling);
    const sim::TrainingSimulator simulator(runner.workload_for(ranks));
    return profiler.profile(simulator, {{"x1", static_cast<double>(ranks)}},
                            repetition, runner.spec().seed);
}

/// Zipf(s) popularity over a seeded permutation of `names`.
class ZipfPicker {
public:
    ZipfPicker(std::vector<std::string> names, Rng& rng, double s)
        : names_(std::move(names)) {
        for (std::size_t i = names_.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(rng.next_u64() % i);
            std::swap(names_[i - 1], names_[j]);
        }
        double total = 0.0;
        for (std::size_t i = 0; i < names_.size(); ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf_.push_back(total);
        }
        for (double& c : cdf_) {
            c /= total;
        }
    }

    const std::string& pick(Rng& rng) const {
        const double u = rng.uniform01();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return names_[std::min<std::size_t>(it - cdf_.begin(),
                                            names_.size() - 1)];
    }

private:
    std::vector<std::string> names_;
    std::vector<double> cdf_;
};

/// Rank counts valid for every registry strategy (multiples of M = 4).
constexpr int kQueryRanks[] = {4, 8, 16, 32, 64};

std::string pick_x(Rng& rng) {
    return std::to_string(kQueryRanks[rng.next_u64() % 5]);
}

/// An ascending subset of kQueryRanks with at least two members.
std::string pick_xs(Rng& rng) {
    std::string out;
    int chosen = 0;
    for (int i = 0; i < 5; ++i) {
        const bool last_chance = 5 - i <= 2 - chosen;
        if (last_chance || rng.bernoulli(0.6)) {
            out += ' ';
            out += std::to_string(kQueryRanks[i]);
            ++chosen;
        }
    }
    return out;
}

}  // namespace

std::string edp_text(const profiling::ProfiledRun& run) {
    std::string out;
    out.reserve(1 << 20);
    out += "EDP\t1\n";
    for (const auto& [key, value] : run.params) {
        out += "P\t" + key + "\t";
        append_double(out, value);
        out += '\n';
    }
    out += "REP\t";
    append_int(out, run.repetition);
    out += "\nWALL\t";
    append_double(out, run.profiling_wall_time);
    out += '\n';
    for (const auto& rank : run.ranks) {
        out += "RANK\t";
        append_int(out, rank.rank);
        out += '\n';
        for (const auto& m : rank.marks) {
            out += "M\t";
            out += mark_kind(m.kind);
            out += '\t';
            append_int(out, m.epoch);
            out += '\t';
            append_int(out, m.step);
            out += '\t';
            out += trace::step_kind_name(m.step_kind);
            out += '\t';
            append_double(out, m.time);
            out += '\n';
        }
        for (const auto& e : rank.events) {
            out += "E\t" + e.name + "\t";
            out += trace::category_name(e.category);
            out += '\t';
            append_double(out, e.start);
            out += '\t';
            append_double(out, e.duration);
            out += '\t';
            append_int(out, e.visits);
            out += '\t';
            append_double(out, e.bytes);
            out += '\n';
        }
    }
    out += "END\n";
    return out;
}

CorpusSpec bulk_corpus_spec(std::uint64_t seed) {
    CorpusSpec c;
    c.experiment.seed = seed;
    c.experiment.sampling = profiling::SamplingStrategy::standard();
    c.experiment.sampling.train_steps_per_epoch = 100;
    c.experiment.sampling.val_steps_per_epoch = 33;
    c.ranks = {2, 4, 6, 8, 10};
    c.repetitions = 5;
    return c;
}

CorpusSpec sampled_corpus_spec(std::uint64_t seed) {
    CorpusSpec c;
    c.experiment.seed = seed;
    c.experiment.sampling = profiling::SamplingStrategy::efficient();
    c.ranks = {2, 4, 6, 8, 10};
    c.repetitions = 10;
    return c;
}

std::vector<std::string> write_corpus(const CorpusSpec& spec,
                                      const std::string& dir) {
    fs::create_directories(dir);
    const ExperimentRunner runner(spec.experiment);
    std::vector<std::string> paths;
    for (int rep = 0; rep < spec.repetitions; ++rep) {
        for (const int ranks : spec.ranks) {
            const std::string path = dir + "/run_x" + std::to_string(ranks) +
                                     "_r" + std::to_string(rep) + ".edp";
            write_file(path, edp_text(profile_run(runner, ranks, rep)));
            paths.push_back(path);
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::vector<std::string> list_files(const std::string& dir,
                                    const std::string& extension) {
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() && entry.path().extension() == extension) {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::vector<NamedSpec> registry_specs(std::uint64_t seed) {
    const std::vector<std::string> datasets = {"CIFAR-10", "CIFAR-100", "IMDB",
                                               "Speech Commands"};
    const std::vector<parallel::StrategyKind> strategies = {
        parallel::StrategyKind::Data, parallel::StrategyKind::Tensor,
        parallel::StrategyKind::Pipeline};
    const std::vector<parallel::ScalingMode> scalings = {
        parallel::ScalingMode::Weak, parallel::ScalingMode::Strong};
    const std::vector<hw::SystemSpec> systems = {hw::SystemSpec::deep(),
                                                 hw::SystemSpec::jureca()};
    const auto first_word = [](std::string_view s) {
        return slug(std::string(s.substr(0, s.find(' '))));
    };
    std::vector<NamedSpec> out;
    for (const hw::SystemSpec& system : systems) {
        for (const std::string& dataset : datasets) {
            for (const auto strategy : strategies) {
                for (const auto scaling : scalings) {
                    NamedSpec n;
                    n.spec.system = system;
                    n.spec.dataset = dataset;
                    n.spec.strategy = strategy;
                    n.spec.scaling = scaling;
                    n.spec.seed = seed;
                    if (strategy != parallel::StrategyKind::Data) {
                        n.spec.modeling_ranks = {4, 8, 12, 16, 20};
                    }
                    n.name = slug(system.name) + "-" + slug(dataset) + "-" +
                             first_word(parallel::strategy_name(strategy)) +
                             "-" + first_word(parallel::scaling_name(scaling));
                    out.push_back(std::move(n));
                }
            }
        }
    }
    return out;
}

void write_registry_models(std::uint64_t seed, const std::string& dir) {
    fs::create_directories(dir);
    for (const NamedSpec& n : registry_specs(seed)) {
        const ExperimentResult result = ExperimentRunner(n.spec).run();
        for (int a = 1; a <= kRegistryAliases; ++a) {
            const std::string name =
                a == 1 ? n.name : n.name + "-" + std::to_string(a);
            serve::write_edpm_file(dir + "/" + name + serve::kEdpmExtension,
                                   serve::make_servable(n.spec, result, name));
        }
    }
}

std::vector<std::string> serve_requests(std::uint64_t seed,
                                        const std::vector<std::string>& models,
                                        std::size_t count) {
    Rng rng(mix64(seed, 0x5e7e));
    const ZipfPicker zipf(models, rng, 1.1);
    static const char* const kPhases[] = {"epoch", "computation",
                                          "communication", "memory"};
    static const char* const kScenarios[] = {
        "interconnect:2", "overlap:0.5", "bandwidth:2+latency:1.5",
        "interconnect:1.5+overlap:0.25", "collective:tree", "fuse:4"};
    std::vector<std::string> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::string& m = zipf.pick(rng);
        const auto verb = rng.next_u64() % 100;
        std::string line;
        if (verb < 72) {
            line = "predict " + m + " " + pick_x(rng);
            if (rng.bernoulli(0.25)) {
                line += ' ';
                line += kPhases[rng.next_u64() % 4];
            }
        } else if (verb < 77) {
            line = "speedup " + m + pick_xs(rng);
        } else if (verb < 82) {
            line = "efficiency " + m + pick_xs(rng);
        } else if (verb < 87) {
            line = "cost " + m + " " + pick_x(rng);
        } else if (verb < 92) {
            line = "search " + m + " inf inf" + pick_xs(rng);
        } else if (verb < 97) {
            line = "plan " + m + pick_xs(rng);
        } else if (verb < 99) {
            line = "whatif " + m + " " + pick_x(rng) + " " +
                   kScenarios[rng.next_u64() % 6];
        } else {
            line = "advise " + m + " " + pick_x(rng) + " 3";
        }
        out.push_back(std::move(line));
    }
    return out;
}

std::vector<std::string> predict_requests(
    std::uint64_t seed, const std::vector<std::string>& models,
    std::size_t count) {
    Rng rng(mix64(seed, 0xf1ee7));
    const ZipfPicker zipf(models, rng, 1.1);
    std::vector<std::string> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back("predict " + zipf.pick(rng) + " " + pick_x(rng));
    }
    return out;
}

std::vector<std::string> fleet_experiments() {
    return {"fleet-a", "fleet-b", "fleet-c"};
}

std::vector<int> fleet_ranks() { return {2, 4, 6, 8, 10}; }

ExperimentSpec fleet_template_spec(std::uint64_t seed) {
    ExperimentSpec spec;
    spec.seed = seed;
    return spec;
}

namespace {

std::string push_path(const std::string& pushes_dir, std::size_t e, int ranks,
                      int k) {
    return pushes_dir + "/e" + std::to_string(e) + "_x" +
           std::to_string(ranks) + "_k" + std::to_string(k) + ".edp";
}

}  // namespace

void write_fleet_inputs(std::uint64_t seed, const std::string& dir) {
    const std::string models_dir = dir + "/models";
    const std::string pushes_dir = dir + "/pushes";
    write_registry_models(seed, models_dir);
    fs::create_directories(pushes_dir);
    const std::vector<std::string> experiments = fleet_experiments();
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        // Each experiment is a different fleet: its own system and noise.
        ExperimentSpec spec = fleet_template_spec(mix64(seed, e));
        spec.system = e % 2 == 0 ? hw::SystemSpec::deep()
                                 : hw::SystemSpec::jureca();
        const ExperimentRunner runner(spec);
        for (const int ranks : fleet_ranks()) {
            for (int k = 0; k < kFleetRunsPerConfig; ++k) {
                write_file(push_path(pushes_dir, e, ranks, k),
                           edp_text(profile_run(runner, ranks, k)));
            }
        }
    }
    // Initial models: one batch per experiment through a push-only loop,
    // so every fleet experiment is served from the first read on.
    fleet::FleetOptions opts;
    opts.models_dir = models_dir;
    opts.spec = fleet_template_spec(seed);
    opts.fit_threads = 1;
    auto registry = std::make_shared<serve::ModelRegistry>();
    auto service = std::make_shared<fleet::FleetService>(opts, registry);
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        for (const int ranks : fleet_ranks()) {
            service->handle_ingest(
                experiments[e],
                serve::escape_lines(read_file(push_path(pushes_dir, e, ranks, 0))));
        }
    }
    service->drain();
    if (service->stats().swaps != experiments.size()) {
        throw Error("e2ebench: initial fleet models were not all installed");
    }
}

Push push_at(const std::string& pushes_dir, std::size_t i) {
    const std::vector<std::string> experiments = fleet_experiments();
    const std::vector<int> ranks = fleet_ranks();
    const std::size_t batch = i / ranks.size();
    const std::size_t e = batch % experiments.size();
    const auto k = static_cast<int>((batch / experiments.size()) %
                                    kFleetRunsPerConfig);
    return {experiments[e],
            push_path(pushes_dir, e, ranks[i % ranks.size()], k)};
}

std::uint64_t directory_digest(const std::string& dir) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file()) {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    std::uint64_t h = 1469598103934665603ULL;
    const auto feed = [&h](const std::string& bytes) {
        for (const unsigned char c : bytes) {
            h = (h ^ c) * 1099511628211ULL;
        }
    };
    for (const fs::path& f : files) {
        feed(fs::relative(f, dir).string());
        feed(read_file(f.string()));
    }
    return h;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw Error("e2ebench: cannot read " + path);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) {
        throw Error("e2ebench: cannot write " + path);
    }
}

}  // namespace e2ebench
