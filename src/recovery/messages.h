// Peer catch-up wire messages, shared by all five protocols.
//
// A replica that went through an amnesiac restart replays its durable image
// and then asks live peers for whatever it externally promised nothing
// about but still missed: the executed key-value state (as a snapshot), the
// committed-but-unexecuted log suffix, and the lane/owner watermarks that
// let its log frontier advance past positions the peers already resolved.
//
// The exchange is deliberately protocol-agnostic: positions are an
// (int64 pos, uint32 lane) pair — the baselines use (index, 0), Domino uses
// (timestamp, lane) — and protocol-specific attributes (EPaxos instance id
// + seq + deps + status) ride in an opaque `aux` byte string each protocol
// encodes and decodes itself.
#pragma once

#include <vector>

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::recovery {

struct CatchupRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kCatchupRequest;
  /// Requester's restart epoch; echoed in the reply so a reply from before
  /// a second crash is discarded.
  std::uint64_t epoch = 0;
  /// Requester's applied-command count after local replay (peers use it
  /// only for observability; the requester judges replies itself).
  std::uint64_t applied = 0;

  bool operator==(const CatchupRequest&) const = default;
  void fields(auto& f) { f(epoch, applied); }
};

/// One key-value pair of the executed-state snapshot.
struct KvEntry {
  std::string key;
  std::string value;

  bool operator==(const KvEntry&) const = default;
  void fields(auto& f) { f(key, value); }
};

/// One committed log entry of the catch-up suffix.
struct CatchupEntry {
  std::int64_t pos = 0;    // log index (baselines) or timestamp (Domino)
  std::uint32_t lane = 0;  // 0 for the baselines; GlobalLog lane for Domino
  sm::Command command;
  /// Protocol-specific attributes (EPaxos: instance id, seq, deps, status).
  wire::Payload aux;

  bool operator==(const CatchupEntry&) const = default;
  void fields(auto& f) { f(pos, lane, command, aux); }
};

struct CatchupReply {
  static constexpr wire::MessageType kType = wire::MessageType::kCatchupReply;
  std::uint64_t epoch = 0;    // echoed from the request
  std::uint64_t applied = 0;  // responder's applied-command count
  /// Responder's execution frontier: first unexecuted log index (baselines)
  /// or the global frontier's timestamp (Domino).
  std::int64_t frontier = 0;
  std::uint32_t frontier_lane = 0;  // Domino: the global frontier's lane
  /// Executed key-value state at the responder.
  std::vector<KvEntry> snapshot;
  /// Per-lane (Domino) or per-owner-rank (Mencius) resolved frontiers /
  /// committed-no-op watermarks; empty when the protocol has none.
  std::vector<std::int64_t> watermarks;
  /// Committed suffix: entries the responder has committed but that the
  /// snapshot (executed state) does not cover. EPaxos sends its full
  /// committed instance set here (its snapshot covers no attributes).
  std::vector<CatchupEntry> entries;

  bool operator==(const CatchupReply&) const = default;
  void fields(auto& f) {
    f(epoch, applied, frontier, frontier_lane, snapshot, watermarks, entries);
  }
};

}  // namespace domino::recovery
