// Per-key persistent-atomicity check of a keyed history in one pass.
//
// Linearizability is compositional, so a keyed history is atomic iff every
// register's projection is. The library's keyed wrapper
// (history::check_atomicity_per_key) rescans the whole history once per
// key, which is quadratic: 300k operations over 1024 keys took 35 s. This
// groups the history by key in one pass, copies the process-wide crash and
// recover events into every key's projection, and checks each projection
// with the public single-register history::check_persistent_atomicity.
#pragma once

#include <cstddef>
#include <string>

#include "history/event.h"

namespace perfbench {

struct keyed_verdict {
  bool ok = true;
  std::string explanation;  // names the failing key
  std::size_t keys_checked = 0;
};

/// A crash of a process that is already crashed is dropped: it changes no
/// state, and the single-register checker would reject it as ill-formed.
/// (The loopback rebuild records one when it tears a replica down and again
/// when the rebuilt node enters recovery through node::crash().)
[[nodiscard]] keyed_verdict check_every_key(const remus::history::history_log& h);

}  // namespace perfbench
