// Google-benchmark microbenchmarks for the substrate hot paths: the wire
// codec, the compressed logs, the sliding-window estimator, the
// discrete-event core and the simulated message path. These bound the
// simulator's capacity for the Figure 13 throughput sweeps.
//
// The binary replaces the global operator new with a counting one so the
// message-path benchmarks can report heap allocations per packet.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/interval_set.h"
#include "common/window_estimator.h"
#include "core/messages.h"
#include "log/global_log.h"
#include "log/index_log.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "wire/message.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace domino;

sm::Command make_cmd(std::uint64_t seq) {
  sm::Command c;
  c.id = RequestId{NodeId{1000}, seq};
  c.key = "k1234567";
  c.value = "v7654321";
  return c;
}

void BM_EncodeDfpPropose(benchmark::State& state) {
  const core::DfpPropose msg{123456789, make_cmd(42)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_message(msg));
  }
}
BENCHMARK(BM_EncodeDfpPropose);

void BM_DecodeDfpPropose(benchmark::State& state) {
  const wire::Payload payload = wire::encode_message(core::DfpPropose{123456789, make_cmd(42)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_message<core::DfpPropose>(payload));
  }
}
BENCHMARK(BM_DecodeDfpPropose);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_after(microseconds(i % 97), [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

// Steady state at a fixed queue depth (Arg): every iteration schedules one
// event and runs the earliest, so the heap holds Arg events throughout.
// 1,720 is the median queue depth of the globe_wan benchmark workload.
void BM_SimulatorScheduleRunAtDepth(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  sim::Simulator simulator;
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  for (int i = 0; i < depth; ++i) simulator.schedule_after(microseconds(i % 997), tick);
  std::int64_t i = 0;
  for (auto _ : state) {
    simulator.schedule_after(microseconds(997 + (i++ * 7919) % 1000), tick);
    simulator.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorScheduleRunAtDepth)->Arg(1720);

// One simulated packet end to end: encode a DfpAcceptNotice, Network::send,
// the delivery event, the receiver decoding it, and the payload's return to
// the encode-buffer free list. `allocs_per_packet` counts heap allocations
// after warm-up (zero on the slab/free-list path).
void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology{{"A", "B"}, {{0.0, 80.0}, {80.0, 0.0}}}, 1);
  network.use_default_links(net::JitterParams{});
  std::int64_t decoded = 0;
  network.register_node(NodeId{0}, 0, [](const net::Packet&) {});
  network.register_node(NodeId{1}, 1, [&decoded](const net::Packet& p) {
    decoded += wire::decode_message<core::DfpAcceptNotice>(p.payload).ts;
  });
  const core::DfpAcceptNotice msg{123456789, true, make_cmd(42),
                                  TimePoint::epoch() + milliseconds(5)};
  auto one_packet = [&] {
    network.send(NodeId{0}, NodeId{1}, wire::encode_message(msg));
    simulator.step();
  };
  for (int i = 0; i < 64; ++i) one_packet();  // warm the slabs and free list
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) one_packet();
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  benchmark::DoNotOptimize(decoded);
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_packet"] = benchmark::Counter(
      static_cast<double>(allocations) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_IndexLogAppendCommitExecute(benchmark::State& state) {
  for (auto _ : state) {
    log::IndexLog log;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      log.accept(i, make_cmd(i));
      log.commit(i);
    }
    benchmark::DoNotOptimize(log.drain_executable());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IndexLogAppendCommitExecute);

void BM_GlobalLogDfpFlow(benchmark::State& state) {
  for (auto _ : state) {
    log::GlobalLog log(4);
    std::int64_t ts = 1000;
    for (int i = 0; i < 1000; ++i) {
      ts += 1000;
      log.commit(log::LogPosition{ts, 3}, make_cmd(static_cast<std::uint64_t>(i)));
    }
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      log.advance_watermark(lane, ts + 1000);
    }
    benchmark::DoNotOptimize(log.drain_executable());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_GlobalLogDfpFlow);

void BM_IntervalSetInsertContains(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set;
    for (std::int64_t i = 0; i < 1000; ++i) {
      set.insert(i * 3, i * 3 + 1);  // leaves holes -> no full coalesce
    }
    bool any = false;
    for (std::int64_t i = 0; i < 3000; i += 7) any ^= set.contains(i);
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_IntervalSetInsertContains);

void BM_WindowEstimatorP95(benchmark::State& state) {
  WindowEstimator w(seconds(1));
  TimePoint t = TimePoint::epoch();
  for (int i = 0; i < 100; ++i) {
    t += milliseconds(10);
    w.add(t, milliseconds(30 + i % 5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.percentile(t, 95));
  }
}
BENCHMARK(BM_WindowEstimatorP95);

// The prober's real mix: one sample per 10 ms probe into a 1 s window (so
// every add also evicts once the window is full), with ~10 percentile reads
// between adds, as the clients' DFP/DM choice and the replicas' replication
// latency estimates issue them. Items are adds plus reads.
void BM_WindowEstimatorProberMix(benchmark::State& state) {
  constexpr int kReadsPerAdd = 10;
  WindowEstimator w(seconds(1));
  TimePoint t = TimePoint::epoch();
  std::int64_t i = 0;
  for (auto _ : state) {
    t += milliseconds(10);
    w.add(t, microseconds(30'000 + (i * 7919) % 5'000));
    ++i;
    for (int r = 0; r < kReadsPerAdd; ++r) {
      t += microseconds(100);
      benchmark::DoNotOptimize(w.percentile(t, 95));
    }
  }
  state.SetItemsProcessed(state.iterations() * (1 + kReadsPerAdd));
}
BENCHMARK(BM_WindowEstimatorProberMix);

}  // namespace

BENCHMARK_MAIN();
