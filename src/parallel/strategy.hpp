#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace extradeep::parallel {

/// The three parallel training strategies evaluated in the paper (Sec. 4.1):
/// pure data parallelism (TensorFlow + Horovod), tensor parallelism
/// (Mesh-TensorFlow), and pipeline parallelism (PyTorch + Horovod). Pure
/// model parallelism is serial and therefore excluded, as in the paper.
enum class StrategyKind {
    Data,
    Tensor,
    Pipeline,
};

std::string_view strategy_name(StrategyKind kind);

/// Parses the output of strategy_name back into the enum (also accepts the
/// bare "data"/"tensor"/"pipeline" shorthand used by CLI flags). Throws
/// ParseError for unknown names (used by the .edpm model reader).
StrategyKind parse_strategy(std::string_view name);

/// Weak scaling multiplies the training set with the number of data-parallel
/// shards; strong scaling keeps the problem size fixed (Sec. 4.1 runs every
/// experiment in both modes).
enum class ScalingMode {
    Weak,
    Strong,
};

std::string_view scaling_name(ScalingMode mode);

/// Parses the output of scaling_name back into the enum (also accepts the
/// bare "weak"/"strong" shorthand). Throws ParseError for unknown names.
ScalingMode parse_scaling(std::string_view name);

/// The analytical step math of paper Sec. 2.3.1. These values must be
/// provided once at the start of modeling; everything downstream is
/// automated. compute_steps (parallel/steps.hpp) derives them; the
/// aggregation layer only reads them, so the struct lives here with the
/// other plain types.
struct StepMath {
    std::int64_t effective_train_samples = 0;  ///< D_t after scaling-mode adjustment
    std::int64_t effective_val_samples = 0;    ///< D_v after scaling-mode adjustment
    std::int64_t batch_per_worker = 0;         ///< B
    std::int64_t train_steps = 0;              ///< n_t (Eq. 2)
    std::int64_t val_steps = 0;                ///< n_v (Eq. 3)
};

/// A fully specified parallel execution: strategy, total MPI ranks x1, and
/// the degree of model parallelism M. Following Eq. 2's convention, G is the
/// total degree of parallelism (all participating ranks) and G/M is the
/// number of data-parallel shards, so
///   data parallel:      M = 1, shards = x1
///   tensor/pipeline:    M = 4, shards = x1 / 4  (paper Sec. 4.2.1)
struct ParallelConfig {
    StrategyKind kind = StrategyKind::Data;
    int total_ranks = 1;          ///< x1, one rank per GPU
    int model_parallel_degree = 1;  ///< M
    int microbatches = 4;         ///< pipeline schedule depth (pipeline only)

    /// Degree of data parallelism G (Eq. 2): the total participating ranks.
    int data_parallel_degree() const { return total_ranks; }
    /// Number of data-parallel shards G/M (model-parallel groups).
    int shards() const;

    /// Throws InvalidArgumentError unless ranks >= 2 (the paper excludes
    /// single-process runs), M >= 1 divides ranks, and M == 1 for pure data
    /// parallelism.
    void validate() const;

    /// Standard configurations used in the evaluation.
    static ParallelConfig data(int ranks);
    static ParallelConfig tensor(int ranks, int m = 4);
    static ParallelConfig pipeline(int ranks, int m = 4, int microbatches = 4);
};

}  // namespace extradeep::parallel
