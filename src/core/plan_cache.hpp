// Process-wide, content-addressed cache of analyzed SolverPlans.
//
// A solve service that boots against many factors pays the symbolic phase
// once per DISTINCT (structure, configuration) pair, not once per request:
// plans are keyed by the matrix's structural hash (pattern + values)
// combined with the configuration fingerprint that shaped the analysis
// (backend, machine, task granularity). Hits return a shallow copy of the
// cached plan -- SolverPlan copies share their immutable symbolic state,
// so a hit costs one streaming content hash of the matrix (word-wise
// FNV, memory-bandwidth cheap) plus an O(1) map lookup, and concurrent
// solves on the returned plan are safe.
//
// Optionally the cache is backed by an on-disk directory of plan blobs
// (SolverPlan::save format): a memory miss probes `<dir>/<key>.plan`
// before re-analyzing, and freshly analyzed plans are written back
// best-effort. That is the cross-process half of the amortization story --
// a restarted service warm-starts from the blob directory at O(read). A
// blob is served only when the factor hash it recorded is its key's;
// any other blob there (misnamed, stale, an older format) is a miss that
// one re-analysis overwrites.
// The directory is operable: fsck() sweeps it, validating every blob's
// CRC and checking its content hash and configuration against the
// filename key, pruning anything stale or corrupt.
//
// Bounded two ways (CacheOptions): at most `capacity` plans stay resident
// (count LRU), and -- when max_bytes is set -- their summed resident
// footprints (factor + snapshot arrays, SolverPlan::resident_bytes) stay
// under the byte budget. Either bound evicts from the LRU tail; evicted
// blobs, if any, stay on disk.
//
// Thread-safe: the index is mutex-guarded; the analysis itself runs
// OUTSIDE the lock, so two racing misses may both analyze (last insert
// wins) but never block each other or the hit path for long.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "sparse/serialize.hpp"

namespace msptrsv::core {

struct CacheOptions {
  /// Count bound: at most this many plans stay resident.
  std::size_t capacity = 32;
  /// Byte budget over the summed resident footprints; 0 = unbounded.
  /// An entry larger than the whole budget is returned to the caller but
  /// does not stay resident (the budget is honest, not advisory). A host
  /// plan holds its factor once, as its row form; a simulated plan holds
  /// it twice: the matrix plus the replay form its first solve builds,
  /// charged from insert on (12 B per nonzero plus 12 B per row beyond
  /// the factor).
  std::size_t max_bytes = 0;
};

class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 32;

  explicit PlanCache(CacheOptions options);
  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : PlanCache(CacheOptions{capacity, 0}) {}

  /// The process-wide instance the registry consults.
  static PlanCache& instance();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// The subset of `evictions` forced by the byte budget while the
    /// count capacity still had room.
    std::uint64_t byte_evictions = 0;
    /// Memory misses served by the on-disk blob directory.
    std::uint64_t disk_hits = 0;
    /// Freshly analyzed plans persisted to the blob directory.
    std::uint64_t disk_stores = 0;
  };

  /// Returns the cached plan for (lower's content, options' analysis
  /// fingerprint), analyzing -- and caching -- on miss. The cached plan
  /// OWNS a copy of the matrix, so the caller's `lower` need not outlive
  /// the cache. Analysis errors are returned verbatim and never cached.
  ///
  /// Note: the key covers the VALUES hash, so a matrix refresh is a new
  /// entry -- but calling update_values() on a returned plan mutates the
  /// shared cached state and desynchronizes it from its key. Prefer
  /// re-fetching through the cache over in-place refreshes of cached
  /// plans.
  Expected<SolverPlan> get_or_analyze(const sparse::CscMatrix& lower,
                                      const SolveOptions& options);

  /// Enables ("" disables) the on-disk blob directory. The directory must
  /// exist; blobs are named `<key>.plan`.
  void set_disk_directory(std::string dir);
  std::string disk_directory() const;

  /// Shrinking the capacity evicts LRU entries immediately.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;
  /// Shrinking the byte budget evicts LRU entries immediately (0 lifts
  /// the bound).
  void set_max_bytes(std::size_t max_bytes);
  std::size_t max_bytes() const;
  /// Summed resident footprint of the cached plans right now.
  std::size_t resident_bytes() const;
  std::size_t size() const;
  Stats stats() const;
  /// Drops every resident plan and zeroes the stats (disk blobs remain).
  void clear();

  // ---- disk-directory maintenance ------------------------------------------

  struct FsckReport {
    /// `*.plan` files examined.
    int scanned = 0;
    int valid = 0;
    /// Unreadable, truncated, CRC-corrupt, or wrong-format blobs (an
    /// older format version included).
    int corrupt = 0;
    /// Blobs that parse but whose content hash or analysis configuration
    /// disagrees with their filename key: stale leftovers of a renamed /
    /// refreshed matrix or an options change. A lookup treats them as a
    /// miss and overwrites them; fsck reclaims the bytes sooner.
    int mismatched = 0;
    /// Bad files actually deleted (repair mode only).
    int pruned = 0;
    std::uint64_t bytes_freed = 0;
    /// One diagnostic line per bad file.
    std::vector<std::string> problems;
  };

  /// Sweeps the on-disk blob directory: reads every `*.plan` file,
  /// verifies the blob format and CRC, and checks the stored factor hash
  /// and (backend, num_gpus, tasks_per_gpu) identity against the filename
  /// key. With `repair` (the default) corrupt and mismatched blobs are
  /// deleted; otherwise the report only diagnoses. Other files in the
  /// directory are ignored. A cache without a disk directory reports
  /// zeroes. Safe to run concurrently with lookups: loads validate blobs
  /// independently and treat a vanished file as a plain miss.
  FsckReport fsck(bool repair = true);

  /// The cache key for (lower, options): hex content hash + configuration
  /// fingerprint, filename-safe. Exposed so tests and operators can
  /// correlate cache entries with blob files.
  static std::string key_of(const sparse::CscMatrix& lower,
                            const SolveOptions& options);

  /// As above, from an already-computed content hash -- for callers that
  /// hold the hash but not the matrix (a network server resolving a
  /// hash-reference plan open against the shared blob directory). Equal to
  /// key_of(m, options) whenever hash == sparse::hash_csc(m).
  static std::string key_of(const sparse::StructuralHash& hash,
                            const SolveOptions& options);

 private:
  struct Entry {
    std::string key;
    SolverPlan plan;
    std::size_t bytes = 0;
  };

  /// Looks up `key`, refreshing LRU order. Caller holds the lock.
  const SolverPlan* find_locked(const std::string& key);
  void insert_locked(const std::string& key, const SolverPlan& plan);
  void evict_to_budget_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t max_bytes_;
  std::size_t resident_bytes_ = 0;
  std::string disk_dir_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace msptrsv::core
