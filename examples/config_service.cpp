// A fault-tolerant cluster-configuration service: one operator process
// publishes versioned configuration snapshots into a replicated register
// (persistent-atomic emulation — operators must never observe their own
// updates un-happening, even across crashes); worker processes poll it.
//
// Demonstrates the persistent emulation's defining feature end to end: the
// operator crashes in the middle of publishing, recovers, and the publish
// is already finished — version numbers observed by workers never regress.
//
//   $ ./build/examples/config_service
#include <cstdio>
#include <string>

#include "common/codec.h"
#include "core/cluster.h"
#include "history/atomicity.h"
#include "proto/policy.h"

namespace {

using namespace remus;

struct config_snapshot {
  std::uint32_t version = 0;
  std::string payload;
};

value encode_config(const config_snapshot& c) {
  byte_writer w;
  w.put_u32(c.version);
  w.put_string(c.payload);
  return value{small_bytes(w.buffer())};
}

config_snapshot decode_config(const value& v) {
  if (v.is_initial()) return {};
  byte_reader r(v.data);
  config_snapshot c;
  c.version = r.get_u32();
  c.payload = r.get_string();
  return c;
}

}  // namespace

int main() {
  core::cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::persistent_policy();
  core::cluster memory(cfg);
  const process_id operator_p{0};

  auto publish = [&](std::uint32_t version, const std::string& payload) {
    memory.write(operator_p, encode_config({version, payload}));
    std::printf("operator published v%u (\"%s\")\n", version, payload.c_str());
  };
  auto poll = [&](std::uint32_t worker) {
    const auto c = decode_config(memory.read(process_id{worker}));
    std::printf("worker p%u sees v%u (\"%s\")\n", worker, c.version, c.payload.c_str());
    return c.version;
  };

  publish(1, "replicas=3");
  poll(2);
  publish(2, "replicas=5");
  const auto seen_before = poll(3);

  // The operator crashes while publishing v3: the update round is blocked,
  // so the value reaches nobody before the crash...
  memory.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::write) &&
        pi.from == process_id{0}) {
      v.drop = true;
    }
    return v;
  });
  memory.submit_write(operator_p, encode_config({3, "replicas=7"}), memory.now());
  memory.submit_crash(operator_p, memory.now() + 2_ms);
  memory.run_for(3_ms);
  memory.network().clear_filter();
  std::printf("operator crashed while publishing v3\n");

  // ...yet after recovery, the persistent emulation finishes the publish
  // before the operator can do anything else (Fig. 4 Recover).
  memory.submit_recover(operator_p, memory.now());
  memory.run_until_idle();
  std::printf("operator recovered\n");
  const auto seen_after = poll(4);

  std::printf("version regression? %s (before crash max v%u, after v%u)\n",
              seen_after >= seen_before ? "no" : "YES", seen_before, seen_after);

  const auto verdict = history::check_persistent_atomicity(memory.events());
  std::printf("history persistent-atomic: %s\n", verdict.ok ? "yes" : "NO");
  if (!verdict.ok) std::printf("%s\n", verdict.explanation.c_str());
  return (verdict.ok && seen_after >= seen_before) ? 0 : 1;
}
