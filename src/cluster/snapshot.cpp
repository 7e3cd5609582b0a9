#include "cluster/snapshot.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "util/fs.h"

namespace dance::cluster {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 1;

std::uint64_t fnv1a(const char* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Append-only byte sink; everything is staged in memory so the checksum
/// and the atomic rename are trivial (snapshots are cache-sized, small).
struct Buffer {
  std::vector<char> bytes;
  void raw(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    bytes.insert(bytes.end(), c, c + n);
  }
  template <typename T>
  void put(T v) {
    raw(&v, sizeof(v));
  }
};

/// Bounds-checked reader over the loaded file image.
struct Cursor {
  const char* p;
  std::size_t left;
  void raw(void* out, std::size_t n) {
    if (n > left) throw SnapshotError("snapshot truncated");
    std::memcpy(out, p, n);
    p += n;
    left -= n;
  }
  template <typename T>
  T get() {
    T v;
    raw(&v, sizeof(v));
    return v;
  }
};

}  // namespace

std::size_t save_snapshot(const serve::LruCache& cache,
                          int encoding_width, const std::string& path) {
  const auto entries = cache.entries();

  Buffer buf;
  buf.raw(kMagic, sizeof(kMagic));
  buf.put<std::uint32_t>(kVersion);
  buf.put<std::uint32_t>(static_cast<std::uint32_t>(encoding_width));
  buf.put<std::uint64_t>(entries.size());
  for (const auto& [key, r] : entries) {
    buf.put<std::uint32_t>(static_cast<std::uint32_t>(key.size()));
    buf.raw(key.data(), key.size() * sizeof(float));
    buf.put<double>(r.metrics.latency_ms);
    buf.put<double>(r.metrics.energy_mj);
    buf.put<double>(r.metrics.area_mm2);
    buf.put<std::int32_t>(r.config.pe_x);
    buf.put<std::int32_t>(r.config.pe_y);
    buf.put<std::int32_t>(r.config.rf_size);
    buf.put<std::uint8_t>(static_cast<std::uint8_t>(r.config.dataflow));
    buf.put<std::uint8_t>(0);  // flags
  }
  buf.put<std::uint64_t>(fnv1a(buf.bytes.data(), buf.bytes.size()));

  try {
    util::atomic_write_file(
        path, std::string_view(buf.bytes.data(), buf.bytes.size()));
  } catch (const std::runtime_error& e) {
    obs::Registry::global().counter("cluster.snapshot.errors").inc();
    throw SnapshotError(e.what());
  }
  obs::Registry::global()
      .counter("cluster.snapshot.saved_entries")
      .inc(static_cast<std::uint64_t>(entries.size()));
  return entries.size();
}

std::size_t load_snapshot(const std::string& path, int expected_width,
                          serve::LruCache& cache) {
  auto fail = [](const std::string& why) -> SnapshotError {
    obs::Registry::global().counter("cluster.snapshot.errors").inc();
    return SnapshotError(why);
  };

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw fail("cannot open " + path + ": " + std::strerror(errno));
  }
  std::vector<char> bytes;
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) throw fail("read error on " + path);

  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t) +
                         2 * sizeof(std::uint64_t)) {
    throw fail("snapshot too small: " + path);
  }
  // Checksum first: everything up to the trailing u64 must hash to it.
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_sum;
  std::memcpy(&stored_sum, bytes.data() + body, sizeof(stored_sum));
  if (fnv1a(bytes.data(), body) != stored_sum) {
    throw fail("snapshot checksum mismatch: " + path);
  }

  Cursor cur{bytes.data(), body};
  char magic[4];
  cur.raw(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw fail("not a snapshot file: " + path);
  }
  const auto version = cur.get<std::uint32_t>();
  if (version != kVersion) {
    throw fail("unsupported snapshot version " + std::to_string(version));
  }
  const auto width = cur.get<std::uint32_t>();
  if (expected_width != 0 && width != 0 &&
      width != static_cast<std::uint32_t>(expected_width)) {
    throw fail("snapshot encoding width " + std::to_string(width) +
               " != expected " + std::to_string(expected_width));
  }
  const auto count = cur.get<std::uint64_t>();

  // Parse fully before the first put() so a truncated/garbled body can
  // never half-populate the cache.
  std::vector<std::pair<serve::LruCache::Key, serve::Response>> parsed;
  parsed.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto key_len = cur.get<std::uint32_t>();
    if (static_cast<std::size_t>(key_len) * sizeof(float) > cur.left) {
      throw fail("snapshot truncated");
    }
    serve::LruCache::Key key(key_len);
    cur.raw(key.data(), key_len * sizeof(float));
    serve::Response r;
    r.metrics.latency_ms = cur.get<double>();
    r.metrics.energy_mj = cur.get<double>();
    r.metrics.area_mm2 = cur.get<double>();
    r.config.pe_x = cur.get<std::int32_t>();
    r.config.pe_y = cur.get<std::int32_t>();
    r.config.rf_size = cur.get<std::int32_t>();
    const auto df = cur.get<std::uint8_t>();
    if (df >= accel::kAllDataflows.size()) {
      throw fail("snapshot has invalid dataflow " + std::to_string(df));
    }
    r.config.dataflow = accel::kAllDataflows[df];
    (void)cur.get<std::uint8_t>();  // flags, reserved
    parsed.emplace_back(std::move(key), r);
  }
  if (cur.left != 0) throw fail("snapshot has trailing bytes: " + path);

  for (const auto& [key, response] : parsed) {
    cache.put(key, response);
  }
  obs::Registry::global()
      .counter("cluster.snapshot.loaded_entries")
      .inc(static_cast<std::uint64_t>(parsed.size()));
  return parsed.size();
}

}  // namespace dance::cluster
