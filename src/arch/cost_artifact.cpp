#include "arch/cost_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "util/fs.h"

namespace dance::arch {

namespace {

// DCTB-v2: fixed 72-byte header, five flat f64 arrays in scan order, the
// scan order itself, trailing FNV-1a checksum over everything before it.
// Byte offsets (little-endian):
//
//    0  char[4]  magic "DCTB"
//    4  u32      version (2)
//    8  u32      num_slots
//   12  u32      num_ops (kNumCandidateOps)
//   16  u64      num_configs
//   24  i32[5]   HwSearchSpace::Options {pe_min, pe_max, rf_min, rf_max,
//                rf_step} — enough to reconstruct H at load time
//   44  u32      arch encoding width (slot/op sanity cross-check)
//   48  f64      clock_ghz
//   56  u64      payload_bytes
//   64  u64      num_kept (length of the scanned prefix)
//   72  f64[]    fixed_cycles[C], fixed_energy[C], area[C],
//                choice_cycles[S*O*C], choice_energy[S*O*C]
//       u32[C]   order: config index at each position
//       u8[]     zero padding to a multiple of 8 bytes
// tail  u64      FNV-1a(bytes[0 .. 72+payload_bytes))
constexpr char kMagic[4] = {'D', 'C', 'T', 'B'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderBytes = 72;
constexpr std::size_t kChecksumBytes = 8;

/// Same FNV-1a as the DSNP cache snapshots (src/cluster/snapshot.cpp).
std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
void put_at(std::string& bytes, std::size_t off, T v) {
  std::memcpy(bytes.data() + off, &v, sizeof(v));
}

template <typename T>
T get_at(const char* data, std::size_t off) {
  T v;
  std::memcpy(&v, data + off, sizeof(v));
  return v;
}

/// Bytes of the f64 arrays, and of the order array plus its padding.
std::size_t array_bytes(std::size_t configs, std::size_t slots) {
  return (3 * configs + 2 * slots * kNumCandidateOps * configs) *
         sizeof(double);
}
std::size_t order_bytes(std::size_t configs) {
  return (configs * sizeof(std::uint32_t) + 7) / 8 * 8;
}

}  // namespace

ArtifactError::ArtifactError(const std::string& message, std::string path,
                             std::size_t offset,
                             std::uint64_t expected_checksum,
                             std::uint64_t actual_checksum)
    : std::runtime_error("cost-table artifact " + path + ": " + message +
                         " (offset " + std::to_string(offset) + ")"),
      path_(std::move(path)),
      offset_(offset),
      expected_(expected_checksum),
      actual_(actual_checksum) {}

std::uint64_t save_cost_table(const TableCostProvider& table,
                              const std::string& path) {
  const auto& view = table.view_;
  const auto slots = static_cast<std::size_t>(view.slots);
  const std::size_t configs = view.num_configs;
  const std::size_t choice_count = slots * kNumCandidateOps * configs;
  const std::size_t payload_bytes =
      array_bytes(configs, slots) + order_bytes(configs);

  std::string bytes(kHeaderBytes + payload_bytes + kChecksumBytes, '\0');
  std::memcpy(bytes.data(), kMagic, sizeof(kMagic));
  put_at<std::uint32_t>(bytes, 4, kVersion);
  put_at<std::uint32_t>(bytes, 8, static_cast<std::uint32_t>(view.slots));
  put_at<std::uint32_t>(bytes, 12, kNumCandidateOps);
  put_at<std::uint64_t>(bytes, 16, configs);
  const hwgen::HwSearchSpace::Options& opts = table.hw_space().options();
  put_at<std::int32_t>(bytes, 24, opts.pe_min);
  put_at<std::int32_t>(bytes, 28, opts.pe_max);
  put_at<std::int32_t>(bytes, 32, opts.rf_min);
  put_at<std::int32_t>(bytes, 36, opts.rf_max);
  put_at<std::int32_t>(bytes, 40, opts.rf_step);
  put_at<std::uint32_t>(
      bytes, 44, static_cast<std::uint32_t>(table.arch_space().encoding_width()));
  put_at<double>(bytes, 48, view.clock_ghz);
  put_at<std::uint64_t>(bytes, 56, payload_bytes);
  put_at<std::uint64_t>(bytes, 64, view.num_kept);

  char* payload = bytes.data() + kHeaderBytes;
  const auto copy_array = [&payload](const double* src, std::size_t n) {
    std::memcpy(payload, src, n * sizeof(double));
    payload += n * sizeof(double);
  };
  copy_array(view.fixed_cycles, configs);
  copy_array(view.fixed_energy, configs);
  copy_array(view.area, configs);
  copy_array(view.choice_cycles, choice_count);
  copy_array(view.choice_energy, choice_count);
  std::memcpy(payload, view.order, configs * sizeof(std::uint32_t));

  const std::uint64_t checksum =
      fnv1a(bytes.data(), kHeaderBytes + payload_bytes);
  put_at<std::uint64_t>(bytes, kHeaderBytes + payload_bytes, checksum);

  try {
    util::atomic_write_file(path, bytes);
  } catch (const std::runtime_error& e) {
    throw ArtifactError(std::string("write failed: ") + e.what(), path);
  }
  obs::Registry::global().counter("costtable.saves").inc();
  return checksum;
}

MmapCostTable::Mapping::~Mapping() {
  if (addr != nullptr) ::munmap(addr, len);
}

MmapCostTable::MmapCostTable(std::string path, const ArchSpace& arch_space)
    : path_(std::move(path)), arch_space_(arch_space) {
  const auto fail = [this](const std::string& message, std::size_t offset = 0,
                           std::uint64_t expected = 0,
                           std::uint64_t actual = 0) -> ArtifactError {
    obs::Registry::global().counter("costtable.load_errors").inc();
    return ArtifactError(message, path_, offset, expected, actual);
  };

  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) {
    throw fail(std::string("open failed: ") + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw fail(std::string("fstat failed: ") + std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes + kChecksumBytes) {
    ::close(fd);
    throw fail("file truncated before header", size);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) {
    throw fail(std::string("mmap failed: ") + std::strerror(errno));
  }
  map_.addr = addr;  // RAII from here: any throw below unmaps
  map_.len = size;
  const char* data = static_cast<const char*>(addr);

  // Checksum first (DSNP discipline): nothing else is trusted, or even
  // interpreted, until the whole image verifies.
  const auto stored = get_at<std::uint64_t>(data, size - kChecksumBytes);
  const std::uint64_t actual = fnv1a(data, size - kChecksumBytes);
  if (stored != actual) {
    throw fail("checksum mismatch", size - kChecksumBytes, stored, actual);
  }

  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw fail("bad magic (not a DCTB file)", 0);
  }
  if (get_at<std::uint32_t>(data, 4) != kVersion) {
    throw fail("unsupported version " +
                   std::to_string(get_at<std::uint32_t>(data, 4)),
               4);
  }
  const auto num_slots = get_at<std::uint32_t>(data, 8);
  const auto num_ops = get_at<std::uint32_t>(data, 12);
  const auto num_configs = get_at<std::uint64_t>(data, 16);
  if (num_ops != static_cast<std::uint32_t>(kNumCandidateOps)) {
    throw fail("candidate-op count mismatch", 12);
  }
  if (num_slots != static_cast<std::uint32_t>(arch_space_.num_searchable())) {
    throw fail("slot count mismatch (table built for another backbone)", 8);
  }
  hwgen::HwSearchSpace::Options opts;
  opts.pe_min = get_at<std::int32_t>(data, 24);
  opts.pe_max = get_at<std::int32_t>(data, 28);
  opts.rf_min = get_at<std::int32_t>(data, 32);
  opts.rf_max = get_at<std::int32_t>(data, 36);
  opts.rf_step = get_at<std::int32_t>(data, 40);
  if (opts.pe_min <= 0 || opts.pe_max < opts.pe_min || opts.rf_min <= 0 ||
      opts.rf_max < opts.rf_min || opts.rf_step <= 0) {
    throw fail("invalid hardware-space options", 24);
  }
  hw_space_ = hwgen::HwSearchSpace(opts);
  if (num_configs != hw_space_.size()) {
    throw fail("config count disagrees with hardware-space options", 16);
  }
  const auto encoding_width = get_at<std::uint32_t>(data, 44);
  if (encoding_width !=
      static_cast<std::uint32_t>(arch_space_.encoding_width())) {
    throw fail("architecture encoding width mismatch", 44);
  }
  const double clock_ghz = get_at<double>(data, 48);
  if (!(clock_ghz > 0.0)) {
    throw fail("non-positive clock frequency", 48);
  }
  const auto payload_bytes = get_at<std::uint64_t>(data, 56);
  const std::size_t choice_count =
      static_cast<std::size_t>(num_slots) * kNumCandidateOps * num_configs;
  const std::size_t arrays = array_bytes(num_configs, num_slots);
  if (payload_bytes != arrays + order_bytes(num_configs)) {
    throw fail("payload size disagrees with table dimensions", 56);
  }
  if (size != kHeaderBytes + payload_bytes + kChecksumBytes) {
    throw fail("file size disagrees with payload", kHeaderBytes + payload_bytes);
  }
  const auto num_kept = get_at<std::uint64_t>(data, 64);
  if (num_kept == 0 || num_kept > num_configs) {
    throw fail("kept-prefix length out of range", 64);
  }
  const std::size_t order_at = kHeaderBytes + arrays;
  for (std::size_t at = order_at + num_configs * sizeof(std::uint32_t);
       at < kHeaderBytes + payload_bytes; ++at) {
    if (data[at] != 0) throw fail("non-zero padding after the order", at);
  }

  // The header is 8-byte sized and the mapping page-aligned, so every f64
  // array below is naturally aligned.
  const auto* payload =
      reinterpret_cast<const double*>(data + kHeaderBytes);
  view_.fixed_cycles = payload;
  view_.fixed_energy = payload + num_configs;
  view_.area = payload + 2 * num_configs;
  view_.choice_cycles = payload + 3 * num_configs;
  view_.choice_energy = payload + 3 * num_configs + choice_count;
  view_.order = reinterpret_cast<const std::uint32_t*>(data + order_at);
  view_.num_configs = num_configs;
  view_.num_kept = num_kept;
  view_.slots = static_cast<int>(num_slots);
  view_.clock_ghz = clock_ghz;

  // The scan order must be exactly the one CostTable derives: a
  // permutation, each part ascending, and the kept part equal to the set
  // re-derived from the mapped rows. optimal() relies on all three.
  const auto entry = [order_at](std::size_t p) {
    return order_at + p * sizeof(std::uint32_t);
  };
  if (const std::size_t bad = index_positions(); bad != num_configs) {
    throw fail("scan order is not a permutation", entry(bad));
  }
  for (std::size_t p = 1; p < num_configs; ++p) {
    if (p != num_kept && view_.order[p] <= view_.order[p - 1]) {
      throw fail(p < num_kept ? "kept prefix is not ascending"
                              : "pruned suffix is not ascending",
                 entry(p));
    }
  }
  const std::vector<std::uint8_t> pruned = pruned_configs(hw_space_);
  for (std::size_t p = 0; p < num_configs; ++p) {
    if ((pruned[view_.order[p]] == 0) != (p < num_kept)) {
      throw fail("kept set disagrees with the table rows", entry(p));
    }
  }
  checksum_ = stored;
  obs::Registry::global().counter("costtable.loads").inc();
  obs::Registry::global().counter("costtable.mapped_bytes").inc(size);
}

MmapCostTable::~MmapCostTable() = default;

std::unique_ptr<MmapCostTable> load_cost_table(const std::string& path,
                                               const ArchSpace& arch_space) {
  return std::make_unique<MmapCostTable>(path, arch_space);
}

}  // namespace dance::arch
