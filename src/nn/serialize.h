#pragma once

#include <string>
#include <vector>

#include "tensor/variable.h"

namespace dance::nn {

/// Save a tensor list to a binary checkpoint. Format: magic, tensor count,
/// then per tensor: rank, dims, float32 payload (host endianness; the
/// checkpoints are caches, not interchange files). The file is staged in
/// memory and written via util::atomic_write_file, so a crash mid-save
/// leaves the previous checkpoint intact rather than a torn prefix.
void save_tensors(const std::string& path,
                  const std::vector<const tensor::Tensor*>& tensors);

/// Load a checkpoint into existing tensors. Shapes must match exactly (the
/// model must be constructed with the same configuration). Throws
/// std::runtime_error naming the file, the expected-vs-actual byte counts,
/// and — when `names` is non-empty (parallel to `tensors`) — the tensor at
/// which parsing failed, so a bad checkpoint in a directory of checkpoints
/// is identifiable from the message alone.
void load_tensors(const std::string& path,
                  const std::vector<tensor::Tensor*>& tensors,
                  const std::vector<std::string>& names = {});

/// Convenience wrappers over parameter variables (no buffers).
void save_parameters(const std::string& path,
                     const std::vector<tensor::Variable>& params);
void load_parameters(const std::string& path,
                     std::vector<tensor::Variable>& params,
                     const std::vector<std::string>& names = {});

/// True if `path` exists and holds a checkpoint with matching parameter
/// shapes (cheap way to decide between loading a cache and retraining).
[[nodiscard]] bool checkpoint_compatible(
    const std::string& path, const std::vector<tensor::Variable>& params);

}  // namespace dance::nn
