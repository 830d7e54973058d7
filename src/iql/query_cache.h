// Version-epoch query result cache (DESIGN.md §8).
//
// Entries are keyed on a caller-chosen string — Dataspace and the
// federation use the plan's canonical key (CanonicalQueryKey, DESIGN.md
// §16), so whitespace/escape variants and reordered conjuncts share one
// entry — and stamped with the VersionLog epoch they were computed at.
// Any catalog mutation appends to the VersionLog and thereby advances the
// epoch, which logically invalidates every entry without a footprint at
// once — exact consistency with zero invalidation scanning. Stale entries
// are dropped lazily on lookup (unless they survive footprint validation,
// below) or by LRU eviction under the byte budget.
//
// Queries whose answer depends on the clock rather than the catalog
// (yesterday()/now() literals) must bypass the cache: IsCacheable().
//
// Footprint survival (DESIGN.md §14): entries may carry a dependency
// footprint. On an epoch-stale lookup the caller-supplied validator gets a
// chance to prove the intervening mutations could not have touched the
// entry's source set (fine-grained epochs + change-record scan); a proven
// entry is re-stamped to the current epoch and served as a hit
// (Stats::footprint_survived), instead of being dropped
// (Stats::stale_skipped). Global-footprint entries keep the classic
// whole-epoch behavior exactly.

#ifndef IDM_IQL_QUERY_CACHE_H_
#define IDM_IQL_QUERY_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "iql/ast.h"
#include "iql/query_processor.h"
#include "sub/footprint.h"

namespace idm::iql {

/// True when \p query's result is a pure function of the dataspace state —
/// i.e. it contains no yesterday()/now() literal whose value changes with
/// the clock alone (no epoch bump).
bool IsCacheable(const Query& query);

/// Thread-safe LRU cache of QueryResults keyed on (query key, epoch).
class QueryCache {
 public:
  struct Options {
    bool enabled = true;
    size_t max_bytes = 8U << 20;  ///< LRU byte budget over cached results
    /// Largest fraction of max_bytes one entry may occupy. A single huge
    /// result would otherwise evict the whole working set for one entry
    /// that is unlikely to amortize; such results are rejected and counted
    /// in Stats::oversized. Values >= 1.0 restore the old behavior (any
    /// result up to the full budget).
    double max_entry_fraction = 0.5;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;       ///< includes epoch-stale lookups
    uint64_t stale_drops = 0;  ///< entries invalidated by an epoch advance
    /// The epoch-stale split (stale_drops == stale_skipped; kept apart so
    /// the survival rate reads directly): entries actually dropped, vs.
    /// entries whose footprint proved the epoch advance irrelevant and
    /// that were re-stamped and served (counted under hits too).
    uint64_t stale_skipped = 0;
    uint64_t footprint_survived = 0;
    uint64_t evictions = 0;    ///< entries evicted by the byte budget
    uint64_t oversized = 0;    ///< inserts rejected by max_entry_fraction
    size_t entries = 0;
    size_t bytes = 0;
    double hit_rate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
    /// Of the epoch-stale lookups, the fraction saved by footprints.
    double survival_rate() const {
      uint64_t total = footprint_survived + stale_skipped;
      return total == 0 ? 0.0
                        : static_cast<double>(footprint_survived) / total;
    }
  };

  /// Proves (true) or declines to prove (false) that a cached entry with
  /// \p footprint, stored at \p entry_epoch, is still exact at the current
  /// epoch. Called under the cache lock — must not re-enter the cache.
  using Validator =
      std::function<bool(const sub::Footprint& footprint,
                         uint64_t entry_epoch)>;

  QueryCache() = default;
  explicit QueryCache(Options options) : options_(options) {}

  bool enabled() const { return options_.enabled; }

  /// Returns the cached result for \p normalized computed at \p epoch, or
  /// nullopt. An entry stored at an older epoch is offered to \p validator
  /// (when given): survival re-stamps it to \p epoch and serves it as a
  /// hit; otherwise it is dropped (stale) and reported as a miss.
  std::optional<QueryResult> Lookup(const std::string& normalized,
                                    uint64_t epoch,
                                    const Validator& validator = nullptr);

  /// Stores \p result for \p normalized at \p epoch and evicts LRU entries
  /// beyond the byte budget. Results larger than max_entry_fraction of the
  /// budget are not cached (Stats::oversized); incomplete (governed
  /// partial) results are never cached — a later ungoverned run must not
  /// be answered with a prefix. No-op when disabled. \p footprint (default:
  /// global) controls how the entry weathers later epoch advances.
  void Insert(const std::string& normalized, uint64_t epoch,
              const QueryResult& result, sub::Footprint footprint = {});

  Stats stats() const;
  void Clear();

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    size_t bytes = 0;
    QueryResult result;
    sub::Footprint footprint;  ///< default kGlobal: classic epoch behavior
  };
  using LruList = std::list<Entry>;

  static size_t ResultBytes(const std::string& key, const QueryResult& result);
  void EvictLocked();  // requires mu_

  Options options_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace idm::iql

#endif  // IDM_IQL_QUERY_CACHE_H_
