#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "extradeep/runner.hpp"
#include "profiling/profiler.hpp"

namespace e2ebench {

/// Bumped whenever generated inputs change for a given seed; part of the
/// input cache key, so a stale cache is never reused.
inline constexpr int kGeneratorVersion = 1;

/// Every input is a pure function of the workload seed: the corpora, the
/// model set, and the request and push sequences. Generation is never
/// timed; run.py caches a generated input directory by workload, seed and
/// kGeneratorVersion.

/// EDP text of one run, written with std::to_chars shortest round-trip
/// doubles. The benchmark's own writer, so input generation neither pays
/// for nor depends on the program's EDP writer.
std::string edp_text(const extradeep::profiling::ProfiledRun& run);

/// A multi-configuration EDP corpus: one file per (rank count, repetition).
struct CorpusSpec {
    extradeep::ExperimentSpec experiment;  ///< dataset/system/strategy/seed
    std::vector<int> ranks;
    int repetitions = 0;
};

/// build_bulk: full-sampling corpus with long profiled epochs (~120 MB).
CorpusSpec bulk_corpus_spec(std::uint64_t seed);
/// build_sampled: the paper's efficient-sampling corpus (~16 MB).
CorpusSpec sampled_corpus_spec(std::uint64_t seed);

/// Writes the corpus into `dir` (created); returns the file paths, sorted.
std::vector<std::string> write_corpus(const CorpusSpec& spec,
                                      const std::string& dir);
/// The sorted *.edp paths of a directory.
std::vector<std::string> list_files(const std::string& dir,
                                    const std::string& extension);

/// One served experiment of the registry.
struct NamedSpec {
    std::string name;
    extradeep::ExperimentSpec spec;
};

/// The served experiments: systems x datasets x strategies x scaling modes.
std::vector<NamedSpec> registry_specs(std::uint64_t seed);
/// Each experiment is served under this many names (tenants deploying the
/// same experiment), so the registry holds 240 model files.
inline constexpr int kRegistryAliases = 5;
/// Fits every registry experiment once and writes it as
/// `<name>.edpm`, `<name>-2.edpm`, ... into `dir`.
void write_registry_models(std::uint64_t seed, const std::string& dir);

/// Open-loop read mix over `models`: Zipf model popularity (a seeded
/// permutation of the names) and predict >> speedup/efficiency/cost/
/// search/plan >> whatif/advise.
std::vector<std::string> serve_requests(std::uint64_t seed,
                                        const std::vector<std::string>& models,
                                        std::size_t count);
/// Only `predict` reads (the read stream beside the fleet pushes).
std::vector<std::string> predict_requests(
    std::uint64_t seed, const std::vector<std::string>& models,
    std::size_t count);

/// Fleet probe: experiments pushed to the fleet loop, the configurations
/// they cycle over, and the distinct runs per (experiment, configuration).
std::vector<std::string> fleet_experiments();
std::vector<int> fleet_ranks();
inline constexpr int kFleetRunsPerConfig = 8;
/// Template experiment of the fleet loop (efficient sampling).
extradeep::ExperimentSpec fleet_template_spec(std::uint64_t seed);

/// Writes the fleet inputs into `dir`: `models/` (the registry of
/// write_registry_models plus one initial model per fleet experiment,
/// fitted from one run per configuration through a FleetService) and
/// `pushes/` (the pushed runs).
void write_fleet_inputs(std::uint64_t seed, const std::string& dir);

/// Push i of the fleet sequence: batches of one run per configuration for
/// one experiment at a time, experiments round-robin, repetition advancing
/// every full cycle.
struct Push {
    std::string experiment;
    std::string path;
};
Push push_at(const std::string& pushes_dir, std::size_t i);

/// FNV-1a digest over the relative paths and bytes of every regular file
/// under `dir` (sorted), for the equal-seeds-equal-inputs self-test.
std::uint64_t directory_digest(const std::string& dir);

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);

}  // namespace e2ebench
