#pragma once

#include <cstdint>

#include "dnn/datasets.hpp"
#include "parallel/strategy.hpp"

namespace extradeep::parallel {

/// Computes n_t and n_v for a configuration (Eqs. 2-3):
///   n_t = floor((D_t / (G/M)) / B)
/// Weak scaling first multiplies D_t (and D_v) by the number of data-parallel
/// shards, as in the paper's CIFAR-10 case study ("we multiply the size of
/// the training dataset by the number of MPI ranks"), so the per-worker step
/// count stays constant. Throws InvalidArgumentError if B < 1, or if the
/// sharded dataset is smaller than one batch (n_t would be 0).
StepMath compute_steps(const dnn::DatasetSpec& dataset,
                       const ParallelConfig& config, std::int64_t batch_size,
                       ScalingMode scaling);

}  // namespace extradeep::parallel
