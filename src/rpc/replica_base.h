// Shared replica machinery for every protocol's replica: the replica-side
// counterpart of ClientBase.
//
// A protocol replica derives from ReplicaBase. The base owns the replica
// set, the executed key-value store, the execute hook the evaluation
// harness taps, and the crash-recovery state machine: binding durable
// storage, the amnesiac restart, and the peer catch-up exchange that ends
// in a rejoin. Restart runs, in order:
//
//   persistor epoch bump -> wipe_volatile() -> store wipe + kRecoveryStart
//   -> rebuild_from_durable() -> CatchupRequest to every peer,
//
// re-sent every kCatchupRetryInterval until the first CatchupReply of the
// current epoch has been merged (merge_catchup_reply()), which rejoins the
// replica (kRecoveryDone). A single-replica deployment rejoins at once.
// Catch-up requests are always served, even by a replica that is itself
// catching up, so simultaneous recoveries cannot deadlock.
//
// The four hooks are the only protocol-specific parts of recovery.
#pragma once

#include <functional>
#include <vector>

#include "recovery/durable.h"
#include "recovery/messages.h"
#include "rpc/node.h"
#include "statemachine/kvstore.h"

namespace domino::rpc {

class ReplicaBase : public Node {
 public:
  /// Called on every command execution (the harness taps this for
  /// execution latency): the executed command's id and the true time.
  using ExecuteHook = std::function<void(const RequestId&, TimePoint)>;

  ReplicaBase(NodeId id, std::size_t dc, net::Network& network, std::vector<NodeId> replicas,
              sim::LocalClock clock);
  ReplicaBase(NodeId id, std::size_t dc, Context& context, std::vector<NodeId> replicas,
              sim::LocalClock clock);

  void set_execute_hook(ExecuteHook hook) { exec_hook_ = std::move(hook); }

  /// Bind simulated durable storage: from now on the replica persists its
  /// promises before externalizing them (paying the store's sync latency)
  /// and can survive an amnesiac restart().
  void enable_durability(recovery::DurableStore& store);

  /// Amnesiac restart (the fault injector's restart hook): wipe all
  /// volatile state, replay the durable image, and catch up from live
  /// peers before serving clients again.
  void restart();

  /// True from restart() until the first catch-up reply of this restart
  /// has been merged. Protocols refuse client requests meanwhile.
  [[nodiscard]] bool catching_up() const { return catching_up_; }

  [[nodiscard]] const sm::KvStore& store() const { return store_; }

  /// Catch-up request retransmit interval while catching up.
  static constexpr Duration kCatchupRetryInterval = milliseconds(100);

 protected:
  /// Drop every piece of volatile protocol state (logs, tallies, pending
  /// rounds, open wait spans). The store is wiped by the base.
  virtual void wipe_volatile() = 0;

  /// Replay the durable image through persistor_, execute what it
  /// committed, and re-lead rounds whose tallies died with the crash.
  virtual void rebuild_from_durable() = 0;

  /// Add the protocol's part of a catch-up reply: execution frontier,
  /// watermarks and committed entries. The base has already set the epoch,
  /// the applied count and the executed-state snapshot.
  virtual void fill_catchup_reply(recovery::CatchupReply& reply) = 0;

  /// Merge a peer's reply for the current restart epoch; `bytes` is its
  /// wire size. Decides whether to install_snapshot(). The base rejoins
  /// right after this returns.
  virtual void merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) = 0;

  /// Replace the store with the reply's executed-state snapshot and account
  /// the install.
  void install_snapshot(const recovery::CatchupReply& msg, std::size_t bytes);

  /// Protocols route kCatchupRequest / kCatchupReply packets here.
  void handle_catchup_request(NodeId from, const wire::Payload& payload);
  void handle_catchup_reply(const wire::Payload& payload);

  /// Report one executed command to the execute hook.
  void notify_executed(const RequestId& id) {
    if (exec_hook_) exec_hook_(id, true_now());
  }

  std::vector<NodeId> replicas_;
  sm::KvStore store_;
  recovery::Persistor persistor_;

 private:
  void send_catchup_requests();
  void finish_rejoin();

  ExecuteHook exec_hook_;
  bool catching_up_ = false;
  TimePoint recovery_started_at_ = TimePoint::epoch();
};

}  // namespace domino::rpc
