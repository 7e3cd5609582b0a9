#pragma once

#include <string>
#include <string_view>

namespace dance::util {

/// Atomically replaces `path` with `bytes`: the content is written to a
/// sibling temp file (`<path>.tmp`) and renamed over the target, so a crash
/// mid-write leaves either the old file or the new one — never a torn
/// prefix. This is the single save idiom shared by the cluster cache
/// snapshots and nn checkpoint saves; every writer that stages its bytes in
/// memory goes through here.
///
/// Throws std::runtime_error (with the failing path and strerror text) on
/// open/short-write/rename failure; the temp file is removed on the error
/// paths that created it.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// Reads a whole file into a string. Throws std::runtime_error when the
/// file cannot be opened or a read error occurs (a missing file is an
/// error — callers that treat absence as "no data" should stat first).
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace dance::util
