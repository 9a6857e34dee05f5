#include "rpc/client_base.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace domino::rpc {
namespace {

net::Topology one_dc() { return net::Topology{{"A"}, {{0.0}}}; }

/// Client whose propose() self-commits after a fixed delay.
class LoopbackClient : public ClientBase {
 public:
  LoopbackClient(NodeId id, net::Network& network, Duration commit_delay)
      : ClientBase(id, 0, network, sim::LocalClock{}), delay_(commit_delay) {}

  std::vector<sm::Command> proposed;

 protected:
  void propose(const sm::Command& command) override {
    proposed.push_back(command);
    after(delay_, [this, id = command.id] { handle_committed(id); });
  }
  void on_packet(const net::Packet&) override {}

 private:
  Duration delay_;
};

TEST(ClientBase, SubmitTriggersProposeAndHooks) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(30));
  c.attach();

  std::vector<Duration> latencies;
  c.set_commit_hook([&](const RequestId&, TimePoint sent, TimePoint committed) {
    latencies.push_back(committed - sent);
  });
  int sends = 0;
  c.set_send_hook([&](const RequestId&, TimePoint) { ++sends; });

  sm::Command cmd;
  cmd.id = RequestId{NodeId{1000}, 0};
  cmd.key = "k";
  cmd.value = "v";
  c.submit(cmd);
  simulator.run();

  EXPECT_EQ(sends, 1);
  EXPECT_EQ(c.submitted_count(), 1u);
  EXPECT_EQ(c.committed_count(), 1u);
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0], milliseconds(30));
}

TEST(ClientBase, DuplicateCommitIgnored) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);

  class DoubleCommit : public LoopbackClient {
   public:
    using LoopbackClient::LoopbackClient;
    void force_commit(const RequestId& id) { handle_committed(id); }
  };
  DoubleCommit c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  int commits = 0;
  c.set_commit_hook([&](const RequestId&, TimePoint, TimePoint) { ++commits; });

  sm::Command cmd;
  cmd.id = RequestId{NodeId{1000}, 0};
  c.submit(cmd);
  simulator.run();
  c.force_commit(cmd.id);  // duplicate
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(c.committed_count(), 1u);
}

TEST(ClientBase, ForeignCommitIgnored) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  class Exposed : public LoopbackClient {
   public:
    using LoopbackClient::LoopbackClient;
    void force_commit(const RequestId& id) { handle_committed(id); }
  };
  Exposed c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  c.force_commit(RequestId{NodeId{1234}, 0});  // not our client id
  EXPECT_EQ(c.committed_count(), 0u);
}

TEST(ClientBase, LoadGeneratorPacesRequests) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  sm::WorkloadConfig wc;
  wc.num_keys = 100;
  sm::WorkloadGenerator gen(wc, 1);
  c.start_load(gen, 100.0);  // 100 rps -> every 10 ms
  simulator.run_until(TimePoint::epoch() + seconds(1));
  c.stop_load();
  EXPECT_EQ(c.submitted_count(), 100u);
  simulator.run_until(TimePoint::epoch() + seconds(2));
  EXPECT_EQ(c.committed_count(), 100u);
  EXPECT_EQ(c.inflight_count(), 0u);
}

TEST(ClientBase, ZeroRateIsNoop) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  sm::WorkloadConfig wc;
  sm::WorkloadGenerator gen(wc, 1);
  c.start_load(gen, 0.0);
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_EQ(c.submitted_count(), 0u);
}

/// Client that silently drops the first `drop_first` proposals, then
/// behaves like LoopbackClient (self-commit after a fixed delay).
class FlakyClient : public ClientBase {
 public:
  FlakyClient(NodeId id, net::Network& network, Duration commit_delay,
              std::size_t drop_first)
      : ClientBase(id, 0, network, sim::LocalClock{}),
        delay_(commit_delay),
        drop_remaining_(drop_first) {}

  std::size_t proposals = 0;

 protected:
  void propose(const sm::Command& command) override {
    ++proposals;
    if (drop_remaining_ > 0) {
      --drop_remaining_;
      return;  // lost: nothing will commit this attempt
    }
    after(delay_, [this, id = command.id] { handle_committed(id); });
  }
  void on_packet(const net::Packet&) override {}

 private:
  Duration delay_;
  std::size_t drop_remaining_;
};

sm::Command command_for(NodeId client, std::uint64_t seq) {
  sm::Command cmd;
  cmd.id = RequestId{client, seq};
  cmd.key = "k";
  cmd.value = "v";
  return cmd;
}

TEST(ClientBase, UnsubmittedCommitIgnored) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  class Exposed : public LoopbackClient {
   public:
    using LoopbackClient::LoopbackClient;
    void force_commit(const RequestId& id) { handle_committed(id); }
    int on_committed_calls = 0;

   protected:
    void on_committed(const RequestId&, TimePoint, TimePoint) override {
      ++on_committed_calls;
    }
  };
  Exposed c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  int commits = 0;
  c.set_commit_hook([&](const RequestId&, TimePoint, TimePoint) { ++commits; });

  c.force_commit(RequestId{NodeId{1000}, 7});  // our client id, never submitted
  EXPECT_EQ(c.submitted_count(), 0u);
  EXPECT_EQ(c.committed_count(), 0u);
  EXPECT_EQ(c.abandoned_count(), 0u);
  EXPECT_EQ(c.inflight_count(), 0u);
  EXPECT_EQ(commits, 0);
  EXPECT_EQ(c.on_committed_calls, 0);

  // A later real submission of that seq still commits exactly once.
  c.submit(command_for(NodeId{1000}, 7));
  simulator.run();
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(c.on_committed_calls, 1);
  EXPECT_EQ(c.submitted_count(),
            c.committed_count() + c.abandoned_count() + c.inflight_count());
}

TEST(ClientBase, TimeoutRetriesUntilCommit) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  FlakyClient c(NodeId{1000}, network, milliseconds(5), /*drop_first=*/2);
  c.attach();
  c.set_request_timeout(milliseconds(20), /*max_retries=*/3);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  // Initial proposal + 2 retries before one gets through and commits.
  EXPECT_EQ(c.proposals, 3u);
  EXPECT_EQ(c.retry_count(), 2u);
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(c.abandoned_count(), 0u);
  EXPECT_EQ(c.inflight_count(), 0u);
}

TEST(ClientBase, AbandonsAfterMaxRetries) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  FlakyClient c(NodeId{1000}, network, milliseconds(5), /*drop_first=*/100);
  c.attach();
  c.set_request_timeout(milliseconds(20), /*max_retries=*/2);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  EXPECT_EQ(c.proposals, 3u);  // initial + 2 retries, all lost
  EXPECT_EQ(c.retry_count(), 2u);
  EXPECT_EQ(c.committed_count(), 0u);
  EXPECT_EQ(c.abandoned_count(), 1u);
  EXPECT_EQ(c.inflight_count(), 0u);
  // submitted == committed + abandoned + inflight.
  EXPECT_EQ(c.submitted_count(),
            c.committed_count() + c.abandoned_count() + c.inflight_count());
}

TEST(ClientBase, LateCommitAfterAbandonIsUncounted) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  // Commits do arrive, but far later than the timeout budget allows.
  LoopbackClient c(NodeId{1000}, network, milliseconds(200));
  c.attach();
  c.set_request_timeout(milliseconds(10), /*max_retries=*/0);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run_until(TimePoint::epoch() + milliseconds(50));
  EXPECT_EQ(c.abandoned_count(), 1u);  // timed out at 10 ms, no retries

  simulator.run();  // the 200 ms self-commit lands
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(c.abandoned_count(), 0u);  // late commit corrects the books
  EXPECT_EQ(c.submitted_count(),
            c.committed_count() + c.abandoned_count() + c.inflight_count());
}

TEST(ClientBase, NoRetryWhenCommitBeatsTimeout) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(5));
  c.attach();
  c.set_request_timeout(milliseconds(50), /*max_retries=*/3);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  EXPECT_EQ(c.proposed.size(), 1u);
  EXPECT_EQ(c.retry_count(), 0u);
  EXPECT_EQ(c.committed_count(), 1u);
}

TEST(ClientBase, CustomTimeoutHookOverridesDefault) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);

  class FailoverClient : public ClientBase {
   public:
    FailoverClient(NodeId id, net::Network& network)
        : ClientBase(id, 0, network, sim::LocalClock{}) {}
    std::vector<std::size_t> failover_attempts;

   protected:
    void propose(const sm::Command&) override {}  // primary path: black hole
    void on_request_timeout(const sm::Command& command, std::size_t attempt) override {
      failover_attempts.push_back(attempt);
      // "Backup path" commits immediately.
      handle_committed(command.id);
    }
    void on_packet(const net::Packet&) override {}
  };

  FailoverClient c(NodeId{1000}, network);
  c.attach();
  c.set_request_timeout(milliseconds(10), /*max_retries=*/3);
  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  ASSERT_EQ(c.failover_attempts.size(), 1u);
  EXPECT_EQ(c.failover_attempts[0], 1u);
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(c.retry_count(), 1u);
  EXPECT_EQ(c.abandoned_count(), 0u);
}

// --- Retry backoff -------------------------------------------------------

/// Client whose propose() records virtual send times and commits nothing.
class SinkClient : public ClientBase {
 public:
  SinkClient(NodeId id, net::Network& network, sim::Simulator& simulator)
      : ClientBase(id, 0, network, sim::LocalClock{}), sim_(simulator) {}

  std::vector<TimePoint> propose_times;

 protected:
  void propose(const sm::Command&) override { propose_times.push_back(sim_.now()); }
  void on_packet(const net::Packet&) override {}

 private:
  sim::Simulator& sim_;
};

TEST(ClientBackoff, DelayGrowsExponentiallyAndClampsAtCap) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  SinkClient c(NodeId{1000}, network, simulator);
  c.attach();
  c.set_request_timeout(milliseconds(10));
  c.set_retry_backoff(/*multiplier=*/2.0, /*cap=*/milliseconds(25),
                      /*jitter=*/0.0, /*seed=*/7);

  EXPECT_EQ(c.backoff_delay(1), milliseconds(10));
  EXPECT_EQ(c.backoff_delay(2), milliseconds(20));
  EXPECT_EQ(c.backoff_delay(3), milliseconds(25));  // 40 clamped to the cap
  EXPECT_EQ(c.backoff_delay(4), milliseconds(25));
  EXPECT_EQ(c.backoff_delay(10), milliseconds(25));
}

TEST(ClientBackoff, DefaultsReproduceLegacyFixedInterval) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  SinkClient plain(NodeId{1000}, network, simulator);
  plain.attach();
  plain.set_request_timeout(milliseconds(10));
  // Backoff never configured: every wait is the plain timeout.
  EXPECT_EQ(plain.backoff_delay(1), milliseconds(10));
  EXPECT_EQ(plain.backoff_delay(5), milliseconds(10));

  SinkClient legacy(NodeId{1001}, network, simulator);
  legacy.attach();
  legacy.set_request_timeout(milliseconds(10));
  legacy.set_retry_backoff(/*multiplier=*/1.0, /*cap=*/Duration::zero(),
                           /*jitter=*/0.0, /*seed=*/7);
  // multiplier = 1, jitter = 0 is the legacy fixed interval, explicitly.
  EXPECT_EQ(legacy.backoff_delay(1), milliseconds(10));
  EXPECT_EQ(legacy.backoff_delay(5), milliseconds(10));
}

TEST(ClientBackoff, JitterIsSeededAndDeterministic) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);

  NodeId next_id{1000};
  const auto sequence = [&](std::uint64_t seed) {
    SinkClient c(next_id, network, simulator);
    next_id = NodeId{next_id.value() + 1};
    c.attach();
    c.set_request_timeout(milliseconds(10));
    c.set_retry_backoff(/*multiplier=*/2.0, /*cap=*/milliseconds(200),
                        /*jitter=*/0.5, seed);
    std::vector<Duration> waits;
    for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
      waits.push_back(c.backoff_delay(attempt));
    }
    return waits;
  };

  const std::vector<Duration> a = sequence(42);
  const std::vector<Duration> b = sequence(42);
  EXPECT_EQ(a, b);  // same seed, same jittered sequence

  // Every jittered wait stays within [base, base * (1 + jitter)).
  for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
    const double base = static_cast<double>(milliseconds(10).nanos()) *
                        std::pow(2.0, static_cast<double>(attempt - 1));
    const double clamped = std::min(base, static_cast<double>(milliseconds(200).nanos()));
    EXPECT_GE(static_cast<double>(a[attempt - 1].nanos()), clamped);
    EXPECT_LT(static_cast<double>(a[attempt - 1].nanos()), clamped * 1.5);
  }

  // A different seed draws different jitter (overwhelmingly likely over
  // five attempts).
  EXPECT_NE(a, sequence(43));
}

TEST(ClientBackoff, RetriesFireAtBackoffInstantsThenAbandon) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  SinkClient c(NodeId{1000}, network, simulator);
  c.attach();
  c.set_request_timeout(milliseconds(10), /*max_retries=*/2);
  c.set_retry_backoff(/*multiplier=*/2.0, /*cap=*/Duration::zero(),
                      /*jitter=*/0.0, /*seed=*/7);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  // Initial proposal at 0; retry 1 after 10 ms; retry 2 another 20 ms on;
  // the final 40 ms timer then exhausts the budget and abandons.
  const TimePoint t0 = TimePoint::epoch();
  ASSERT_EQ(c.propose_times.size(), 3u);
  EXPECT_EQ(c.propose_times[0], t0);
  EXPECT_EQ(c.propose_times[1], t0 + milliseconds(10));
  EXPECT_EQ(c.propose_times[2], t0 + milliseconds(30));
  EXPECT_EQ(c.retry_count(), 2u);
  EXPECT_EQ(c.abandoned_count(), 1u);
  EXPECT_EQ(simulator.now(), t0 + milliseconds(70));  // 30 + the last 40 ms wait
}

}  // namespace
}  // namespace domino::rpc
