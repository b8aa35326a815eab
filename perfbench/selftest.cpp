// The benchmark's self-test: breaks each correctness condition on purpose,
// on real objects where it can be broken from outside, and expects the
// matching check to fire. Run with `python3 perfbench/run.py --self-test`.
#include <filesystem>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "churn/churn_model.hpp"
#include "net/inproc_transport.hpp"
#include "runtime/peer_runtime.hpp"
#include "sim/round_simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace updp2p;

namespace {

runtime::RuntimeConfig durable_config(const std::string& dir) {
  runtime::RuntimeConfig config;
  config.gossip.estimated_total_replicas = 2;
  config.gossip.acks.enabled = true;
  config.store.data_dir = dir;
  return config;
}

/// Reports whether `broken` made its check fire.
int expect_fires(const std::string& name, const Report& broken) {
  const bool fired = !broken.correct();
  std::cout << (fired ? "fires   " : "SILENT  ") << name;
  if (fired) std::cout << "  (" << broken.failures().front() << ")";
  std::cout << "\n";
  return fired ? 0 : 1;
}

/// And that the same check passes when nothing is broken.
int expect_passes(const std::string& name, const Report& healthy) {
  const bool passed = healthy.correct();
  std::cout << (passed ? "passes  " : "FIRES   ") << name << "\n";
  return passed ? 0 : 1;
}

}  // namespace

int self_test(const Options& options) {
  const std::string root = options.work_dir + "/self-test";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  int silent = 0;

  net::InprocNetwork network;
  auto a_end = network.attach(common::PeerId(0));
  auto b_end = network.attach(common::PeerId(1));
  auto raw_end = network.attach(common::PeerId(2));

  // 1. A data dir whose parent is missing: the store cannot open, the peer
  //    silently runs volatile.
  {
    runtime::PeerRuntime orphan(
        durable_config(root + "/missing-parent/peer-0"), *a_end);
    Report broken;
    check_durable(broken, {&orphan});
    silent += expect_fires("durable(): data dir with a missing parent",
                           broken);
  }

  // 2. A durable peer that never appended (wal_appends == 0), then the
  //    same peer after a publish.
  std::vector<common::PeerId> view_a{common::PeerId(1)};
  {
    runtime::PeerRuntime idle(durable_config(root + "/idle"), *a_end);
    Report broken;
    check_durable(broken, {&idle});
    silent += expect_fires("wal_appends > 0: a peer that logged nothing",
                           broken);
    idle.bootstrap(view_a);
    idle.poll(0.0);
    (void)idle.publish("k", "v");
    Report healthy;
    check_durable(healthy, {&idle});
    silent += expect_passes("durable + wal_appends after a publish", healthy);
  }

  // 3. Crash recovery with the WAL and snapshot removed: the restarted
  //    digest differs from the digest before the crash.
  {
    const std::string dir = root + "/wiped";
    common::Digest128 before{};
    {
      runtime::PeerRuntime peer(durable_config(dir), *a_end);
      peer.bootstrap(view_a);
      peer.poll(0.0);
      (void)peer.publish("k", "v");
      before = peer.node().store().content_digest();
    }
    {
      runtime::PeerRuntime intact(durable_config(dir), *a_end);
      Report healthy;
      check_digests(healthy, {before}, {intact.node().store().content_digest()});
      silent += expect_passes("digest after an intact restart", healthy);
    }
    std::filesystem::remove_all(dir);
    runtime::PeerRuntime wiped(durable_config(dir), *a_end);
    Report broken;
    check_digests(broken, {before}, {wiped.node().store().content_digest()});
    silent += expect_fires("digest: restart after the store was wiped", broken);
  }

  // 4. A garbage datagram: the runtime counts a decode error.
  {
    runtime::RuntimeConfig config;
    config.gossip.estimated_total_replicas = 2;
    runtime::PeerRuntime peer(config, *b_end);
    const std::byte garbage[] = {std::byte{0x55}, std::byte{0x50},
                                 std::byte{0x09}, std::byte{0xff}};
    (void)raw_end->send(common::PeerId(1), garbage);
    network.advance_to(1.0);
    peer.poll(1.0);
    Report broken;
    check_runtime_integrity(broken, peer.stats());
    silent += expect_fires("decode_errors == 0: one garbage datagram", broken);
  }

  // 5. retransmit_reencodes cannot be provoked from outside the runtime
  //    (its retry path always owns its bytes); feed the check the counter.
  {
    runtime::RuntimeStats stats;
    stats.retransmit_reencodes = 1;
    Report broken;
    check_runtime_integrity(broken, stats);
    silent += expect_fires("retransmit_reencodes == 0: counter set to 1",
                           broken);
  }

  // 6. Wire versus in-memory counts: equal for one seed (the real
  //    comparison), different when the runs differ.
  {
    const auto run = [](std::uint64_t seed, bool wire) {
      sim::RoundSimConfig config;
      config.population = 500;
      config.gossip.fanout_fraction = 0.05;
      config.gossip.estimated_total_replicas = 500;
      config.serialize_messages = wire;
      config.seed = seed;
      sim::RoundSimulator sim(
          config, std::make_unique<churn::BernoulliChurn>(500, 0.5, 0.95, 0.05));
      return sim.propagate_update();
    };
    Report healthy;
    healthy.check(same_metrics(run(7, true), run(7, false)),
                  "wire-mode counts equal the in-memory counts");
    silent += expect_passes("wire == in-memory counts, same seed", healthy);
    Report broken;
    broken.check(same_metrics(run(7, true), run(8, false)),
                 "wire-mode counts equal the in-memory counts");
    silent += expect_fires("wire == in-memory counts: different runs", broken);
  }

  std::filesystem::remove_all(root);
  std::cout << (silent == 0 ? "self-test: every check fires when broken\n"
                            : "self-test: FAILED\n");
  return silent;
}

}  // namespace perfbench
