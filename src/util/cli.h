#pragma once

#include <cstring>

namespace dance::util {

/// The value of a `--name=value` command-line argument: `arg` past `flag`
/// (which ends in '='), or nullptr when `arg` is a different flag.
[[nodiscard]] inline const char* flag_value(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
}

}  // namespace dance::util
