#include "core/plan_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "core/plan_snapshot.hpp"
#include "core/registry.hpp"
#include "sparse/serialize.hpp"
#include "support/blob.hpp"

namespace msptrsv::core {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Filename-safe machine tag: the machine name with anything exotic
/// squashed to '-' (machine names are short and human-chosen; distinct
/// cost models should use distinct names to get distinct cache entries).
std::string machine_tag(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!keep) c = '-';
  }
  return out.empty() ? "host" : out;
}

}  // namespace

PlanCache::PlanCache(CacheOptions options)
    : capacity_(options.capacity), max_bytes_(options.max_bytes) {}

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::string PlanCache::key_of(const sparse::CscMatrix& lower,
                              const SolveOptions& options) {
  return key_of(sparse::hash_csc(lower), options);
}

std::string PlanCache::key_of(const sparse::StructuralHash& h,
                              const SolveOptions& options) {
  // Runtime-behavioral options are part of the key too (not only the
  // symbolic-phase inputs): a hit returns a SHARED plan, so every field
  // that changes what its solves do or report must disambiguate the
  // entry. Otherwise the first caller's ablation flags / thread count
  // would silently apply to everyone hitting the same structure.
  const int nvshmem_bits = (options.nvshmem.naive_get_update_put ? 4 : 0) |
                           (options.nvshmem.gather_from_all_pes ? 2 : 0) |
                           (options.nvshmem.linear_reduction ? 1 : 0);
  // An autotuned request names no backend: the tuner picks one per
  // factor, so it must not share entries with an explicit request.
  const bool tuned = options.autotune && !is_simulated(options.backend);
  return hex64(h.pattern) + "-" + hex64(h.values) + "-" +
         (tuned ? "auto" : registry::entry_of(options.backend).key) + "-g" +
         std::to_string(options.machine.num_gpus()) + "-t" +
         std::to_string(options.tasks_per_gpu) + "-c" +
         std::to_string(options.cpu_threads) + "-n" +
         std::to_string(nvshmem_bits) +
         // Unconditional fixed-width token: a conditional one adjacent to
         // the free-form machine tag would let (no flag, machine "sp-x")
         // collide with (flag, machine "x").
         (options.use_shared_pool ? "-sp1" : "-sp0") + "-" +
         machine_tag(options.machine.name);
}

const SolverPlan* PlanCache::find_locked(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return &it->second->plan;
}

void PlanCache::insert_locked(const std::string& key, const SolverPlan& plan) {
  // An entry larger than the whole byte budget can never stay resident:
  // refuse it up front rather than letting the LRU sweep evict every
  // OTHER entry first on its way to the oversized newcomer.
  if (max_bytes_ != 0 && plan.resident_bytes() > max_bytes_) {
    const auto stale = index_.find(key);
    if (stale != index_.end()) {
      resident_bytes_ -= stale->second->bytes;
      lru_.erase(stale->second);
      index_.erase(stale);
      ++stats_.evictions;
      ++stats_.byte_evictions;
    }
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    resident_bytes_ -= it->second->bytes;
    it->second->plan = plan;
    it->second->bytes = plan.resident_bytes();
    resident_bytes_ += it->second->bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    evict_to_budget_locked();
    return;
  }
  lru_.push_front(Entry{key, plan, plan.resident_bytes()});
  resident_bytes_ += lru_.front().bytes;
  index_[key] = lru_.begin();
  evict_to_budget_locked();
}

void PlanCache::evict_to_budget_locked() {
  while (!lru_.empty() &&
         (lru_.size() > capacity_ ||
          (max_bytes_ != 0 && resident_bytes_ > max_bytes_))) {
    if (lru_.size() <= capacity_) ++stats_.byte_evictions;
    resident_bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

Expected<SolverPlan> PlanCache::get_or_analyze(const sparse::CscMatrix& lower,
                                               const SolveOptions& options) {
  const sparse::StructuralHash hash = sparse::hash_csc(lower);
  const std::string key = key_of(hash, options);
  std::string disk_dir;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const SolverPlan* hit = find_locked(key)) {
      ++stats_.hits;
      return *hit;
    }
    ++stats_.misses;
    disk_dir = disk_dir_;
  }

  // Miss path, outside the lock: probe the blob directory, then analyze.
  if (!disk_dir.empty()) {
    const std::string path = disk_dir + "/" + key + ".plan";
    Expected<SolverPlan> from_disk = SolverPlan::load(path, options);
    // A blob serves only the factor its key names: one recorded for
    // another factor is a miss, re-analyzed and overwritten below.
    if (from_disk.ok() && *from_disk.value().recorded_hash() == hash) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.disk_hits;
      insert_locked(key, from_disk.value());
      return from_disk;
    }
    // Missing, stale, misnamed or older-format blob: fall through to
    // analysis (and overwrite it).
  }

  Expected<SolverPlan> analyzed =
      SolverPlan::analyze(sparse::CscMatrix(lower), options);
  if (!analyzed.ok()) return analyzed;  // never cache failures

  bool stored = false;
  if (!disk_dir.empty()) {
    stored = analyzed.value().save(disk_dir + "/" + key + ".plan").ok();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stored) ++stats_.disk_stores;
    insert_locked(key, analyzed.value());
  }
  return analyzed;
}

void PlanCache::set_disk_directory(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_dir_ = std::move(dir);
}

std::string PlanCache::disk_directory() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_dir_;
}

void PlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  evict_to_budget_locked();
}

std::size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void PlanCache::set_max_bytes(std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_bytes_ = max_bytes;
  evict_to_budget_locked();
}

std::size_t PlanCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_bytes_;
}

std::size_t PlanCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  resident_bytes_ = 0;
  stats_ = Stats{};
}

PlanCache::FsckReport PlanCache::fsck(bool repair) {
  namespace fs = std::filesystem;
  FsckReport report;
  const std::string dir = disk_directory();
  if (dir.empty()) return report;

  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    report.problems.push_back(dir + ": " + ec.message());
    return report;
  }

  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".plan") continue;
    ++report.scanned;
    const std::string name = path.stem().string();  // the cache key

    std::string problem;
    bool corrupt = false;
    std::vector<std::uint8_t> bytes;
    SnapshotBlob parsed;
    if (!support::read_file(path.string(), bytes)) {
      problem = "unreadable";
      corrupt = true;
    } else {
      // Full-format parse: verifies magic, version, endianness, the
      // whole-payload CRC, and every section's internal consistency. A
      // blob of an older format is corrupt here, as a lookup refuses it.
      // kSkipValues still CRC-checks the value bytes, so the sweep stays
      // allocation-light on multi-MB blobs.
      const std::string err =
          deserialize_snapshot(bytes, parsed, SnapshotRead::kSkipValues);
      if (!err.empty()) {
        problem = err;
        corrupt = true;
      }
    }
    if (!corrupt) {
      // The filename key leads with <pattern>-<values> (16 hex chars
      // each); a blob that parses but no longer matches its name is a
      // stale leftover -- a lookup under this key treats it as a miss and
      // overwrites it.
      const std::string want_hash = hex64(parsed.factor_hash.pattern) + "-" +
                                    hex64(parsed.factor_hash.values);
      // An autotuned blob is filed under "auto", not the backend it chose.
      const std::string want_config =
          std::string("-") +
          (parsed.snapshot.tuned
               ? "auto"
               : registry::entry_of(parsed.snapshot.backend).key) +
          "-g" +
          std::to_string(parsed.snapshot.num_gpus) + "-t" +
          std::to_string(parsed.snapshot.tasks_per_gpu) + "-";
      if (name.rfind(want_hash, 0) != 0) {
        problem = "content hash disagrees with the filename key";
      } else if (name.find(want_config) == std::string::npos) {
        problem = "analysis configuration disagrees with the filename key";
      }
    }

    if (problem.empty()) {
      ++report.valid;
      continue;
    }
    (corrupt ? report.corrupt : report.mismatched) += 1;
    report.problems.push_back(path.filename().string() + ": " + problem);
    if (repair) {
      std::uintmax_t size = entry.file_size(ec);
      if (ec) size = 0;
      if (fs::remove(path, ec) && !ec) {
        ++report.pruned;
        report.bytes_freed += static_cast<std::uint64_t>(size);
      }
    }
  }
  return report;
}

}  // namespace msptrsv::core
