// Federated queries over networks of PDSMS instances (paper §8: "we are
// planning to extend our system to enable networks of P2P instances").
//
// A Federation holds a set of named peers — independent Dataspace instances
// standing in for iMeMex nodes on other machines — and evaluates one iQL
// query against all of them (query shipping). Results are merged and
// attributed to the peer that produced them; a simulated per-peer network
// latency model charges the local clock, so federation benchmarks behave
// like the remote-IMAP model of Fig. 5.
//
// With Options::threads > 1 the federation scatter-gathers: per-peer
// sub-queries (including their retry/deadline loops) run concurrently on a
// fixed pool, and outcomes are merged in peer-registration order, so the
// merged rows equal the serial merge. An optional per-peer result cache
// keyed on (peer, query, peer VersionLog epoch) skips the simulated network
// round trip entirely while the peer's dataspace is unchanged.

#ifndef IDM_IQL_FEDERATION_H_
#define IDM_IQL_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "iql/dataspace.h"
#include "iql/query_cache.h"
#include "obs/obs.h"
#include "util/fault.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace idm::iql {

/// One row of a federated result: which peer matched, and what.
struct FederatedRow {
  std::string peer;
  index::DocId id = 0;   ///< id in that peer's catalog
  std::string uri;       ///< resolved eagerly: ids are peer-local
  std::string name;
  double score = 0.0;    ///< peer-local tf-idf score (0 when unranked)
};

struct FederatedResult {
  std::vector<FederatedRow> rows;
  size_t peers_reached = 0;
  size_t peers_failed = 0;
  size_t peers_degraded = 0;   ///< peers that returned a partial result
  size_t retries = 0;          ///< link retries across all peers
  size_t cache_hits = 0;       ///< peers answered from the federation cache
  Micros elapsed_micros = 0;   ///< wall + simulated network cost
  /// Names of peers that failed, with the reason ("peer: status").
  std::vector<std::string> failures;

  size_t size() const { return rows.size(); }
};

/// A query-shipping federation of Dataspace peers.
class Federation {
 public:
  struct PeerLatency {
    Micros per_query_micros = 25000;     ///< WAN round trip per shipped query
    Micros per_result_micros = 50;       ///< result-row transfer cost
  };

  /// Resilience knobs. Each peer gets its own retry budget and simulated
  /// time budget, so one dead or slow peer degrades the merged result
  /// (peers_failed) instead of dominating the federation's latency.
  struct Options {
    /// Link-level retry per peer; backoff is charged to the clock.
    RetryPolicy retry{/*max_attempts=*/3, /*initial_backoff_micros=*/10000,
                      /*backoff_multiplier=*/2.0,
                      /*max_backoff_micros=*/200000,
                      /*jitter_fraction=*/0.25};
    /// Simulated budget (network + backoff) per peer; 0 disables the
    /// deadline. A peer that would exceed it is abandoned as failed.
    Micros per_peer_deadline_micros = 2000000;
    /// Seed for deterministic backoff jitter. Serial execution draws one
    /// jitter stream across peers in registration order; scatter-gather
    /// derives an independent stream per peer from this seed (still fully
    /// deterministic, independent of scheduling).
    uint64_t jitter_seed = 7;
    /// Scatter-gather width. 1 (default) ships to peers sequentially,
    /// byte-for-byte the pre-parallel behavior; N > 1 queries up to N
    /// peers concurrently and merges outcomes in registration order.
    size_t threads = 1;
    /// Per-peer result cache, keyed on the peer's VersionLog epoch.
    /// Disabled by default: a cache hit legitimately skips the simulated
    /// network cost and link-fault schedule, which resilience tests that
    /// count per-call faults must not see unless they opt in.
    QueryCache::Options cache{/*enabled=*/false, /*max_bytes=*/8U << 20};
  };

  /// \p clock is charged with the simulated network cost (may be nullptr).
  explicit Federation(Clock* clock = nullptr) : Federation(clock, Options()) {}
  Federation(Clock* clock, Options options);
  ~Federation();

  /// Adds a peer. The Dataspace must outlive the federation. Peer names
  /// must be unique. \p link, when set, injects faults into the network
  /// path to this peer (shipping a query may fail with kIoError /
  /// kUnavailable and be retried under Options::retry); it must outlive
  /// the federation. Under scatter-gather each peer's link injector is
  /// consulted only from that peer's task — do not share one injector
  /// across peers when threads > 1.
  Status AddPeer(std::string name, const Dataspace* peer,
                 PeerLatency latency = PeerLatency{25000, 50},
                 FaultInjector* link = nullptr);

  size_t peer_count() const { return peers_.size(); }

  /// Ships \p iql to every peer and merges the unary results. Ranked
  /// results merge by descending peer-local score (cross-peer scores are
  /// comparable only loosely — idf statistics are peer-local; this is the
  /// standard federated-IR caveat and is preserved deliberately). Peers
  /// that fail to evaluate the query are counted, not fatal — unless every
  /// peer fails, in which case the first error (in registration order) is
  /// returned. Transient link faults are retried under Options::retry
  /// (backoff charged to the clock); each peer is bounded by
  /// Options::per_peer_deadline_micros of simulated time.
  Result<FederatedResult> Query(const std::string& iql) const;

  /// Governed federated query: each peer's simulated budget is the
  /// configured per-peer deadline clamped to what remains of \p ctx's
  /// deadline, and each peer evaluates under a derived Dataspace deadline —
  /// a slow peer returns a partial result (peers_degraded) rather than
  /// blowing the caller's budget. A doomed \p ctx abandons the remaining
  /// peers (counted failed with the doom reason). ctx == nullptr is the
  /// ungoverned overload above.
  Result<FederatedResult> Query(const std::string& iql,
                                util::ExecContext* ctx) const;

  /// Routes federation traces (obs::kFederationTrace — one span per peer
  /// RPC) and metrics into \p obs; nullptr detaches. The sink must outlive
  /// the federation. Typically the coordinator dataspace's observability().
  void SetObservability(obs::Observability* obs);

 private:
  struct Peer {
    std::string name;
    const Dataspace* dataspace;
    PeerLatency latency;
    FaultInjector* link;
  };
  /// Everything one peer contributes to the merge; produced serially or by
  /// a scatter task, consumed in registration order either way.
  struct PeerOutcome {
    std::vector<FederatedRow> rows;
    bool reached = false;
    bool cache_hit = false;
    bool degraded = false;  ///< peer answered with an incomplete result
    size_t retries = 0;
    Micros charged = 0;  ///< simulated network + backoff cost
    Status error;        ///< why the peer failed (when !reached)
  };

  /// Runs one peer's full ship/retry/deadline loop. \p clock, when set, is
  /// advanced incrementally (serial mode); scatter tasks pass nullptr and
  /// the accumulated charge is applied at merge time. \p ctx (may be null)
  /// is the caller's governance context; see Query(iql, ctx).
  PeerOutcome QueryPeer(const Peer& peer, const std::string& iql,
                        const std::string& cache_key, bool cacheable,
                        Rng* jitter, Clock* clock, util::ExecContext* ctx,
                        obs::TraceSpan* span) const;

  Clock* clock_;
  Options options_;
  std::vector<Peer> peers_;
  mutable QueryCache cache_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads <= 1
  obs::Observability* obs_ = nullptr;
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* peer_rpcs = nullptr;
    obs::Counter* peer_failures = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* cache_hits = nullptr;
  } metrics_;
};

}  // namespace idm::iql

#endif  // IDM_IQL_FEDERATION_H_
