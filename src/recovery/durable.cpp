#include "recovery/durable.h"

#include <utility>

namespace domino::recovery {

const char* record_tag_name(RecordTag tag) {
  switch (tag) {
    case RecordTag::kReservation: return "Reservation";
    case RecordTag::kAccepted: return "Accepted";
    case RecordTag::kCommitted: return "Committed";
    case RecordTag::kWatermark: return "Watermark";
  }
  return "Unknown";
}

RecoveryStats& RecoveryStats::operator+=(const RecoveryStats& o) {
  persisted_records += o.persisted_records;
  persisted_bytes += o.persisted_bytes;
  restarts += o.restarts;
  replayed_records += o.replayed_records;
  replayed_bytes += o.replayed_bytes;
  catchup_installs += o.catchup_installs;
  catchup_bytes += o.catchup_bytes;
  rejoin_ns_total += o.rejoin_ns_total;
  return *this;
}

void DurableLog::append(RecordTag tag, wire::Payload body) {
  ++stats.persisted_records;
  stats.persisted_bytes += body.size() + 1;
  if (weakened_) return;  // the forgotten fsync: code path identical, data gone
  bytes_ += body.size() + 1;
  records_.push_back(DurableRecord{tag, std::move(body)});
}

void DurableStore::bind_obs(const obs::Sink& sink) {
  obs_ = sink;
  obs_persist_records_ = sink.counter("recovery.persist_records");
  obs_persist_bytes_ = sink.counter("recovery.persist_bytes");
  obs_restarts_ = sink.counter("recovery.restarts");
  obs_replay_records_ = sink.counter("recovery.replay_records");
  obs_replay_bytes_ = sink.counter("recovery.replay_bytes");
  obs_catchup_installs_ = sink.counter("recovery.catchup_installs");
  obs_catchup_bytes_ = sink.counter("recovery.catchup_bytes");
  obs_rejoin_ns_ = sink.histogram("recovery.time_to_rejoin_ns");
  obs_catchup_duration_ns_ = sink.histogram("recovery.catchup_duration_ns");
}

RecoveryStats DurableStore::aggregate() const {
  RecoveryStats total;
  for (const auto& [node, log] : logs_) {
    (void)node;
    total += log.stats;
  }
  return total;
}

void Persistor::bind(DurableStore& store, NodeId node, Scheduler scheduler) {
  store_ = &store;
  node_ = node;
  scheduler_ = std::move(scheduler);
}

bool Persistor::append(RecordTag tag, wire::Payload record) {
  store_->obs_persist_records_.inc();
  store_->obs_persist_bytes_.inc(record.size() + 1);
  store_->log_of(node_).append(tag, std::move(record));
  return store_->config().sync_latency <= Duration::zero() || !scheduler_;
}

void Persistor::defer(std::function<void()> then) {
  // The record is on disk only after the sync completes: defer the
  // externalizing continuation, and cancel it if the node restarts first.
  scheduler_(store_->config().sync_latency, [this, epoch = epoch_, fn = std::move(then)] {
    if (epoch == epoch_) fn();
  });
}

void Persistor::begin_restart() {
  ++epoch_;
  if (store_ == nullptr) return;
  ++store_->log_of(node_).stats.restarts;
  store_->obs_restarts_.inc();
}

void Persistor::replay(const std::function<void(const DurableRecord&)>& fn) {
  if (store_ == nullptr) return;
  DurableLog& log = store_->log_of(node_);
  for (const DurableRecord& record : log.records()) {
    ++log.stats.replayed_records;
    log.stats.replayed_bytes += record.body.size() + 1;
    store_->obs_replay_records_.inc();
    store_->obs_replay_bytes_.inc(record.body.size() + 1);
    fn(record);
  }
}

void Persistor::note_catchup_install(std::size_t bytes, Duration took) {
  if (store_ == nullptr) return;
  DurableLog& log = store_->log_of(node_);
  ++log.stats.catchup_installs;
  log.stats.catchup_bytes += bytes;
  store_->obs_catchup_installs_.inc();
  store_->obs_catchup_bytes_.inc(bytes);
  store_->obs_catchup_duration_ns_.record(took);
}

void Persistor::note_rejoin(Duration time_to_rejoin) {
  if (store_ == nullptr) return;
  store_->log_of(node_).stats.rejoin_ns_total += time_to_rejoin.nanos();
  store_->obs_rejoin_ns_.record(time_to_rejoin);
}

}  // namespace domino::recovery
