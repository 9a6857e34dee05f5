// Simulated durable storage for crash recovery.
//
// The repository's fault model (net/fault.h) can make crashes *amnesiac*:
// on FaultEvent::kRecover the harness wipes a replica's volatile state
// through a restart hook, so whatever the replica externalized before the
// crash must be recoverable from somewhere. That somewhere is this module:
// a per-node append-only write-ahead log of tagged records, living in a
// DurableStore that the harness owns and that survives restarts.
//
// The store models the cost of durability with a configurable sync
// latency: a replica that must persist before sending (persist-before-
// externalize, the classic acceptor discipline) calls
// Persistor::persist(tag, body, then) — the record is appended immediately
// (state mutations are never deferred) but the continuation, which holds
// the externalizing sends, runs only after the simulated sync completes.
// Continuations are epoch-guarded: a crash+restart during the sync window
// cancels them, exactly like a real fsync that never returned.
//
// For the negative consistency tests a node's log can be "weakened"
// (DurableStore::weaken): appends are silently dropped while the code path
// stays identical — the model of a forgotten fsync. The chaos checker must
// catch the resulting violation.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/sink.h"
#include "wire/codec.h"

namespace domino::recovery {

/// Tag of a durable write-ahead record. The body layout is owned by the
/// protocol that wrote it; tags are shared so replay loops can dispatch.
enum class RecordTag : std::uint8_t {
  kReservation = 1,  // log-position reservation (next index / instance / ts)
  kAccepted = 2,     // accepted value at a position (plus protocol attributes)
  kCommitted = 3,    // commit decision at a position
  kWatermark = 4,    // lane / owner-rank frontier advance
};

[[nodiscard]] const char* record_tag_name(RecordTag tag);

struct DurableRecord {
  RecordTag tag = RecordTag::kReservation;
  wire::Payload body;
};

struct DurableConfig {
  /// Simulated latency of one durable sync (write + flush). Zero = writes
  /// are durable instantly (continuations run inline).
  Duration sync_latency = Duration::zero();
};

/// Per-node recovery accounting, aggregated into RunResult/RunReport.
struct RecoveryStats {
  std::uint64_t persisted_records = 0;
  std::uint64_t persisted_bytes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t replayed_bytes = 0;
  std::uint64_t catchup_installs = 0;
  std::uint64_t catchup_bytes = 0;
  std::int64_t rejoin_ns_total = 0;  // sum of time-to-rejoin over restarts

  RecoveryStats& operator+=(const RecoveryStats& o);
};

/// One node's append-only durable image. Survives the node's restarts (it
/// is owned by the DurableStore, not the replica).
class DurableLog {
 public:
  void append(RecordTag tag, wire::Payload body);

  [[nodiscard]] const std::vector<DurableRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t byte_size() const { return bytes_; }

  /// Negative-test knob: drop appends silently (a forgotten fsync).
  void set_weakened(bool weakened) { weakened_ = weakened; }
  [[nodiscard]] bool weakened() const { return weakened_; }

  RecoveryStats stats;

 private:
  std::vector<DurableRecord> records_;
  std::uint64_t bytes_ = 0;
  bool weakened_ = false;
};

/// The harness-owned collection of per-node durable logs.
class DurableStore {
 public:
  explicit DurableStore(DurableConfig config = {}) : config_(config) {}

  [[nodiscard]] const DurableConfig& config() const { return config_; }

  /// The durable log of `node`, created on first use.
  [[nodiscard]] DurableLog& log_of(NodeId node) { return logs_[node]; }

  /// Weaken one node's durability (see DurableLog::set_weakened).
  void weaken(NodeId node) { log_of(node).set_weakened(true); }

  /// Attach an observability sink for the recovery.* metrics. Optional;
  /// unbound stores just skip the instrumentation.
  void bind_obs(const obs::Sink& sink);
  [[nodiscard]] const obs::Sink& obs() const { return obs_; }

  /// Sum of every node's recovery accounting.
  [[nodiscard]] RecoveryStats aggregate() const;

  // Metric handles shared by every Persistor bound to this store.
  obs::CounterHandle obs_persist_records_;
  obs::CounterHandle obs_persist_bytes_;
  obs::CounterHandle obs_restarts_;
  obs::CounterHandle obs_replay_records_;
  obs::CounterHandle obs_replay_bytes_;
  obs::CounterHandle obs_catchup_installs_;
  obs::CounterHandle obs_catchup_bytes_;
  obs::HistogramHandle obs_rejoin_ns_;
  obs::HistogramHandle obs_catchup_duration_ns_;

 private:
  DurableConfig config_;
  std::unordered_map<NodeId, DurableLog> logs_;
  obs::Sink obs_;
};

/// Per-replica facade over the durable store: persist-then-continue with
/// the configured sync latency, plus restart/replay/rejoin bookkeeping.
///
/// Default-constructed (unbound) the facade is disabled: persist() runs the
/// continuation inline without encoding anything, so protocols can call it
/// unconditionally and fault-free runs stay byte-identical to before.
class Persistor {
 public:
  using Scheduler = std::function<void(Duration, std::function<void()>)>;

  Persistor() = default;

  /// Bind to `store` for `node`; `scheduler` supplies the virtual-time
  /// delay used to model sync latency (typically rpc::Node::after).
  void bind(DurableStore& store, NodeId node, Scheduler scheduler);

  [[nodiscard]] bool enabled() const { return store_ != nullptr; }
  [[nodiscard]] Duration sync_latency() const {
    return store_ == nullptr ? Duration::zero() : store_->config().sync_latency;
  }

  /// Append the record produced by `body()` (a wire::Payload) under `tag`,
  /// then run `then()` once the simulated sync completes. Unbound: `then`
  /// runs inline, `body` is never invoked and nothing is type-erased, so
  /// the durability-off path costs no allocation. Bound: the record is
  /// appended now and, when the sync takes time, `then` is type-erased
  /// once into the deferred continuation. The continuation is cancelled if
  /// the node restarts during the sync window (the send was never
  /// externalized).
  template <typename Body, typename Then>
  void persist(RecordTag tag, Body&& body, Then&& then) {
    if (store_ == nullptr) {
      then();
      return;
    }
    if (append(tag, std::forward<Body>(body)())) {
      then();
      return;
    }
    defer(std::function<void()>(std::forward<Then>(then)));
  }

  /// Fire-and-forget persist (no externalization gated on it).
  template <typename Body>
  void persist(RecordTag tag, Body&& body) {
    persist(tag, std::forward<Body>(body), [] {});
  }

  /// Restart epoch: bumped by begin_restart(); stale sync continuations and
  /// stale catch-up replies compare against it.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Begin an amnesiac restart: cancel in-flight sync continuations and
  /// count the restart. Call before wiping volatile state.
  void begin_restart();

  /// Replay the durable image through `fn`, in append order.
  void replay(const std::function<void(const DurableRecord&)>& fn);

  /// Catch-up accounting: an installed peer snapshot of `bytes` bytes that
  /// took `took` since the restart began.
  void note_catchup_install(std::size_t bytes, Duration took);

  /// The replica rejoined (first successful catch-up exchange done).
  void note_rejoin(Duration time_to_rejoin);

  [[nodiscard]] RecoveryStats* stats() {
    return store_ == nullptr ? nullptr : &store_->log_of(node_).stats;
  }

 private:
  /// Bound slow path: append `record` to this node's log. Returns true when
  /// the write is durable at once (zero sync latency or no scheduler).
  bool append(RecordTag tag, wire::Payload record);
  /// Run `then` after the sync latency unless the node restarts first.
  void defer(std::function<void()> then);

  DurableStore* store_ = nullptr;
  NodeId node_;
  Scheduler scheduler_;
  std::uint64_t epoch_ = 0;
};

}  // namespace domino::recovery
