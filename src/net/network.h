// Simulated wide-area network.
//
// The Network owns:
//   - the node registry (which datacenter each node lives in, and its
//     receive callback),
//   - one LatencyModel + RNG stream per directed datacenter pair,
//   - per node-pair FIFO channels (a message never overtakes an earlier
//     message on the same (src, dst) channel — the TCP ordering Domino
//     requires, Section 5.1), kept as one row per source indexed by the
//     destination's registration slot,
//   - the in-flight packets, held in a slab with a free list so a send
//     schedules an event that captures only {this, slot} (inline in
//     std::function, no heap block per packet),
//   - optional capacity modelling: per-node receive service time (CPU cost
//     per message) and egress bandwidth, used by the peak-throughput
//     experiment (Figure 13),
//   - a FaultInjector (net/fault.h): the single drop/deform decision point
//     for crash failures, directed link partitions, degradation epochs and
//     route changes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/fault.h"
#include "net/latency_model.h"
#include "net/packet.h"
#include "net/topology.h"
#include "obs/sink.h"
#include "sim/simulator.h"
#include "wire/codec.h"

namespace domino::net {

/// Wire-level framing overhead charged per packet on top of the payload,
/// roughly TCP/IP + HTTP2 framing of a small gRPC call.
inline constexpr std::size_t kFrameOverheadBytes = 64;

class Network {
 public:
  /// Packet handler of a registered node. The Packet (and its payload) is
  /// valid only for the duration of the call: once the receiver returns,
  /// the payload buffer goes back to wire::recycle for the next encode.
  /// A receiver that needs the bytes later must copy them.
  using Receiver = std::function<void(const Packet&)>;

  Network(sim::Simulator& simulator, Topology topology, std::uint64_t seed);

  /// Place every directed datacenter link on a JitterLatency model with
  /// base = RTT/2 and the given jitter parameters.
  void use_default_links(const JitterParams& params);

  /// Override the model for one directed datacenter pair.
  void set_link_model(std::size_t from_dc, std::size_t to_dc,
                      std::unique_ptr<LatencyModel> model);

  /// Install a symmetric route-change schedule between datacenters `a` and
  /// `b`: each step sets both directions to ScheduledLatency with base =
  /// rtt/2 — the Figure 12 traffic-control idiom, shared so benches and
  /// tests never hand-roll step vectors.
  void set_scheduled_rtt_link(std::size_t a, std::size_t b,
                              const std::vector<RttStep>& steps,
                              const JitterParams& params);

  [[nodiscard]] LatencyModel& link_model(std::size_t from_dc, std::size_t to_dc);

  /// Register a node in a datacenter. The receiver is invoked (through the
  /// simulator) when a packet is delivered; see Receiver for the lifetime
  /// of the packet it is handed.
  void register_node(NodeId id, std::size_t dc, Receiver receiver);

  [[nodiscard]] std::size_t dc_of(NodeId id) const;
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Send `payload` from `src` to `dst`. Self-sends are delivered with the
  /// intra-datacenter delay. Packets to/from crashed nodes are dropped.
  void send(NodeId src, NodeId dst, wire::Payload payload);

  /// Capacity modelling (all default off = infinitely fast).
  void set_receive_service_time(NodeId id, Duration per_message);
  void set_egress_bandwidth_bps(NodeId id, double bits_per_second);

  /// Crash-failure injection: a crashed node neither sends nor receives.
  /// Recovery resets the node's FIFO channel bookkeeping, so post-recovery
  /// packets are never delayed behind deliveries from before the crash.
  void crash(NodeId id) { fault_.crash(id); }
  void recover(NodeId id) { fault_.recover(id); }
  [[nodiscard]] bool is_crashed(NodeId id) const { return fault_.is_crashed(id); }

  /// The fault-injection state machine: partitions, degradation epochs,
  /// route changes, per-reason drop counters, and the fault/drop digest.
  [[nodiscard]] FaultInjector& fault() { return fault_; }
  [[nodiscard]] const FaultInjector& fault() const { return fault_; }

  /// Schedule a whole fault timeline on the simulator (declarative form
  /// used by harness::Scenario).
  void install_faults(const FaultSchedule& schedule) { fault_.install(schedule); }

  /// Amnesiac-restart hook: runs on every recover, after the FIFO channel
  /// reset. The harness wipes the recovered replica's volatile state here
  /// so it must replay its durable image and catch up from peers.
  void set_restart_hook(std::function<void(NodeId)> hook) {
    fault_.set_restart_hook(std::move(hook));
  }

  // Traffic statistics.
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return packets_dropped_; }
  [[nodiscard]] std::uint64_t packets_dropped(DropReason reason) const {
    return fault_.drops(reason);
  }

  /// Attach an observability sink. Registers per-directed-datacenter-link
  /// message/byte counters and delivery-delay histograms, traces every
  /// dropped packet (sends and deliveries are counted, not traced), and is
  /// inherited by nodes constructed over this network (rpc::SimContext
  /// forwards it). Bind before registering nodes so their handles resolve.
  void bind_obs(const obs::Sink& sink);
  [[nodiscard]] const obs::Sink& obs_sink() const { return obs_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  struct NodeInfo {
    std::size_t dc = 0;
    std::uint32_t slot = 0;  // registration order; the FIFO column index
    Receiver receiver;
    Duration rx_service = Duration::zero();  // per-message processing time
    double egress_bps = 0.0;                 // 0 = unlimited
    TimePoint rx_busy_until = TimePoint::epoch();
    TimePoint tx_busy_until = TimePoint::epoch();
    /// FIFO row: last delivery time on the channel to the node registered
    /// at each slot (grown on first send to that slot; epoch = no history).
    std::vector<TimePoint> channel_last;
  };

  /// A packet between send and delivery, parked in the in-flight slab.
  struct InFlight {
    Packet packet;
    std::size_t src_dc = 0;
    NodeInfo* to = nullptr;  // unordered_map nodes never move
    std::size_t bytes = 0;
  };

  struct LinkObs {
    obs::CounterHandle messages;
    obs::CounterHandle bytes;
    obs::HistogramHandle delay_ns;
  };

  NodeInfo& info(NodeId id);
  [[nodiscard]] const NodeInfo& info(NodeId id) const;
  void count_drop(DropReason reason, NodeId src, NodeId dst, std::size_t bytes);
  /// Forget FIFO delivery state on every channel touching `id` — its row
  /// and its column (called on recovery; pre-crash deliveries must not
  /// delay post-recovery traffic).
  void reset_channels_of(NodeId id);
  /// Deliver (or drop) the in-flight packet at `slot` and free the slot.
  void deliver(std::uint32_t slot);

  sim::Simulator& sim_;
  Topology topology_;
  Rng rng_;
  std::vector<std::vector<std::unique_ptr<LatencyModel>>> links_;  // [from][to]
  std::vector<std::vector<Rng>> link_rngs_;
  std::unordered_map<NodeId, NodeInfo> nodes_;
  std::vector<NodeInfo*> node_by_slot_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  FaultInjector fault_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;

  obs::Sink obs_;
  std::vector<std::vector<LinkObs>> link_obs_;  // [from_dc][to_dc]
  obs::CounterHandle obs_dropped_;
};

}  // namespace domino::net
