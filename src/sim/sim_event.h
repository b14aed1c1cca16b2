// Typed simulator events.
//
// All simulator traffic falls into a handful of shapes, so an event is a
// tagged union executed by the world driver (the cluster) through the
// `sim_executor` interface. There is no closure form: scheduling never
// allocates a callable, and every kind, cold paths included, is a case of
// the driver's switch.
//
// The payload fields are a union-by-convention: each kind reads only its own
// fields (documented below) and leaves the rest defaulted. Moving a
// `sim_event` moves its buffers; no field ever needs a deep copy on the hot
// path (message payloads are refcounted `shared_message` handles shared by
// every delivery of one broadcast).
//
// Layering note: sim/ deliberately depends on proto/message here — the
// simulator's whole workload is protocol messages, and typing them is what
// removes the per-event allocation.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.h"
#include "common/value.h"
#include "proto/shared_message.h"
#include "storage/stable_store.h"

namespace remus::sim {

enum class event_kind : std::uint8_t {
  none = 0,     // empty slot
  message,      // deliver `msg` to `target`'s core
  log_done,     // store durable at `target`: token `a`, `log_key`/`log_record`
  timer,        // protocol timer at `target`: token `a`, guarded by `incarnation`
  op_dispatch,  // client pump at `target`: op handle `a` (or redispatch)
  crash,        // fault injection at `target`
  recover,
  /// Recovery's stable-storage read finished at `target`: reopen the store
  /// and run Recover(). Guarded by `incarnation` (a crash meanwhile voids it).
  recovery_read,
  lease_expiry, // lease deadline at `target`: token `a`, guarded by `incarnation`
};

/// Sentinel for `sim_event::a` / `incarnation` meaning "no handle / no
/// incarnation guard".
inline constexpr std::uint64_t no_event_arg = ~0ULL;

struct sim_event {
  event_kind kind = event_kind::none;
  process_id target{};
  std::uint64_t a = no_event_arg;            // token or op handle (see kinds)
  std::uint64_t incarnation = no_event_arg;  // guard; no_event_arg = unguarded
  proto::shared_message msg{};               // message
  storage::record_key log_key{};             // log_done (trivially copyable)
  bytes log_record{};                        // log_done
  /// log_done: keys erased in the same durable step (store_and_obsolete).
  std::vector<storage::record_key> log_obsoletes{};
};

/// Executes the events popped by the event queue. Implemented by the world
/// driver (core::cluster).
class sim_executor {
 public:
  virtual void execute(sim_event& ev) = 0;

 protected:
  ~sim_executor() = default;
};

}  // namespace remus::sim
