// Unit tests for the quorum protocol core: message formats, records,
// policies, and the state machine driven by hand — verifying exactly where
// each algorithm logs (paper Figures 4 and 5) and what the causal-log
// tracing reports (section I-B).
#include <gtest/gtest.h>

#include "proto/message.h"
#include "proto/policy.h"
#include "proto/quorum_core.h"
#include "proto/records.h"
#include "storage/memory_store.h"

namespace remus::proto {
namespace {

constexpr std::uint32_t kN = 5;
constexpr std::uint32_t kMajority = 3;

message sn_ack_from(std::uint32_t p, const message& query, std::int64_t sn) {
  message m;
  m.kind = msg_kind::sn_ack;
  m.from = process_id{p};
  m.op_seq = query.op_seq;
  m.round = query.round;
  m.epoch = query.epoch;
  m.ts = tag{sn, 0, no_process};
  m.log_depth = query.log_depth;
  return m;
}

message write_ack_from(std::uint32_t p, const message& w, std::uint32_t depth) {
  message m;
  m.kind = msg_kind::write_ack;
  m.from = process_id{p};
  m.op_seq = w.op_seq;
  m.round = w.round;
  m.epoch = w.epoch;
  m.log_depth = depth;
  return m;
}

message read_ack_from(std::uint32_t p, const message& q, tag t, value v) {
  message m;
  m.kind = msg_kind::read_ack;
  m.from = process_id{p};
  m.op_seq = q.op_seq;
  m.round = q.round;
  m.epoch = q.epoch;
  m.ts = t;
  m.val = std::move(v);
  m.log_depth = q.log_depth;
  return m;
}

// ---------- Wire format ----------

TEST(Message, EncodeDecodeRoundTrip) {
  message m;
  m.kind = msg_kind::write;
  m.from = process_id{3};
  m.op_seq = 42;
  m.round = 2;
  m.epoch = 0xabcdef;
  m.ts = tag{7, 1, process_id{3}};
  m.val = value_of_u32(99);
  m.log_depth = 2;
  const message d = decode_message(encode(m));
  EXPECT_EQ(d, m);
}

TEST(Message, WireSizeMatchesEncodedSize) {
  message m;
  m.kind = msg_kind::read_ack;
  m.from = process_id{1};
  m.val = value_of_size(1000);
  EXPECT_EQ(wire_size(m), encode(m).size());
  m.val = initial_value();
  EXPECT_EQ(wire_size(m), encode(m).size());
  // encode sizes its buffer once, up front: the frame never regrows.
  m.val = value_of_u32(5);
  EXPECT_EQ(encode(m).capacity(), wire_size(m));

  message batched;
  batched.kind = msg_kind::write;
  batched.from = process_id{2};
  for (std::uint32_t k = 0; k < 5; ++k) {
    batched.batch.push_back({k, tag{k + 1, 0, process_id{2}}, value_of_size(10 + 20 * k)});
  }
  EXPECT_EQ(wire_size(batched), encode(batched).size());
  EXPECT_EQ(encode(batched).capacity(), wire_size(batched));

  message leased;
  leased.kind = msg_kind::read_ack;
  leased.from = process_id{0};
  leased.val = value_of_size(64);
  leased.leases = {{3, 0b101}, {9, 0b010}};
  EXPECT_EQ(wire_size(leased), encode(leased).size());
  EXPECT_EQ(encode(leased).capacity(), wire_size(leased));
}

TEST(Message, DecodeRejectsGarbage) {
  bytes junk{0xff, 0x00, 0x01};
  EXPECT_THROW((void)decode_message(junk), codec_error);
}

TEST(Records, TaggedValueRoundTrip) {
  const tagged_value_record r{tag{5, 2, process_id{1}}, value_of_string("abc")};
  EXPECT_EQ(decode_tagged_value(encode(r)), r);
}

TEST(Records, RecoveryRoundTrip) {
  const recovery_record r{17};
  EXPECT_EQ(decode_recovery(encode(r)).recoveries, 17);
}

// ---------- Policies ----------

TEST(Policy, NamedPoliciesAreCoherent) {
  for (const auto& p :
       {crash_stop_policy(), persistent_policy(), transient_policy(), abd_swmr_policy(),
        regular_swmr_policy(), safe_swmr_policy(), regular_cr_policy(), safe_cr_policy(),
        transient_literal_policy(), persistent_no_prelog_policy(),
        read_no_writeback_policy(), read_volatile_writeback_policy(),
        ablation_a_policy(), ablation_a_prime_policy()}) {
    EXPECT_TRUE(p.coherent()) << p.name;
  }
}

TEST(Policy, IncoherentCombinationsRejected) {
  protocol_policy p = persistent_policy();
  p.writer_prelog = false;  // finish-write without prelog
  EXPECT_FALSE(p.coherent());

  protocol_policy q = crash_stop_policy();
  q.writer_prelog = true;  // logging in crash-stop
  EXPECT_FALSE(q.coherent());

  protocol_policy r = crash_stop_policy();
  r.write_query_round = false;  // no query round for multi-writer
  EXPECT_FALSE(r.coherent());
  r.single_writer = true;
  EXPECT_TRUE(r.coherent());
}

TEST(Policy, CoreRejectsIncoherentPolicy) {
  storage::memory_store st;
  protocol_policy p = persistent_policy();
  p.writer_prelog = false;
  EXPECT_THROW(quorum_core(p, process_id{0}, kN, st, 1), precondition_error);
}

// ---------- Crash-stop write/read (the baseline of [2]) ----------

class CrashStopCore : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<quorum_core>(crash_stop_policy(), process_id{0}, kN, store_, 7);
    outputs out;
    core_->start(out);
    ASSERT_TRUE(out.empty());
  }

  storage::memory_store store_;
  std::unique_ptr<quorum_core> core_;
};

TEST_F(CrashStopCore, WriteRunsTwoRoundsNoLogs) {
  outputs out;
  core_->invoke_write(value_of_u32(10), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  EXPECT_EQ(out.broadcasts[0].msg.kind, msg_kind::sn_query);
  EXPECT_TRUE(out.logs.empty());
  const message query = out.broadcasts[0].msg;

  // Majority of SN acks; max sn = 4.
  out.clear();
  core_->on_message(sn_ack_from(1, query, 2), out);
  EXPECT_TRUE(out.broadcasts.empty());
  core_->on_message(sn_ack_from(2, query, 4), out);
  out.clear();
  core_->on_message(sn_ack_from(3, query, 3), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);  // round 2 starts on the 3rd ack
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.kind, msg_kind::write);
  EXPECT_EQ(w.ts, (tag{5, 0, process_id{0}}));  // max + 1, tie-break pid
  EXPECT_EQ(w.val, value_of_u32(10));
  EXPECT_TRUE(out.logs.empty());

  out.clear();
  core_->on_message(write_ack_from(1, w, 0), out);
  core_->on_message(write_ack_from(2, w, 0), out);
  EXPECT_FALSE(out.completion.has_value());
  core_->on_message(write_ack_from(4, w, 0), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_FALSE(out.completion->is_read);
  EXPECT_EQ(out.completion->causal_logs, 0u);  // crash-stop never logs
  EXPECT_EQ(out.completion->round_trips, 2u);  // 4 communication steps
  EXPECT_EQ(store_.store_count(), 0u);
}

TEST_F(CrashStopCore, DuplicateAcksDoNotCount) {
  outputs out;
  core_->invoke_write(value_of_u32(10), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  core_->on_message(sn_ack_from(1, query, 0), out);
  core_->on_message(sn_ack_from(1, query, 0), out);
  core_->on_message(sn_ack_from(1, query, 0), out);
  EXPECT_TRUE(out.broadcasts.empty());  // still only 1 distinct responder
  core_->on_message(sn_ack_from(2, query, 0), out);
  core_->on_message(sn_ack_from(3, query, 0), out);
  EXPECT_EQ(out.broadcasts.size(), 1u);
}

TEST_F(CrashStopCore, StaleAcksFromOldPhaseIgnored) {
  outputs out;
  core_->invoke_write(value_of_u32(10), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    core_->on_message(sn_ack_from(p, query, 0), out);
  }
  const message w = out.broadcasts[0].msg;
  out.clear();
  // Acks for round 1 cannot satisfy round 2.
  core_->on_message(sn_ack_from(1, query, 0), out);
  core_->on_message(sn_ack_from(2, query, 0), out);
  core_->on_message(sn_ack_from(4, query, 0), out);
  EXPECT_FALSE(out.completion.has_value());
  // Wrong-epoch write acks ignored.
  message bad = write_ack_from(1, w, 0);
  bad.epoch ^= 1;
  core_->on_message(bad, out);
  EXPECT_FALSE(out.completion.has_value());
  // Real acks complete it.
  core_->on_message(write_ack_from(1, w, 0), out);
  core_->on_message(write_ack_from(2, w, 0), out);
  core_->on_message(write_ack_from(3, w, 0), out);
  EXPECT_TRUE(out.completion.has_value());
}

TEST_F(CrashStopCore, ServerAdoptsOnlyNewerTags) {
  outputs out;
  message w;
  w.kind = msg_kind::write;
  w.from = process_id{2};
  w.op_seq = 9;
  w.round = 2;
  w.epoch = 55;
  w.ts = tag{3, 0, process_id{2}};
  w.val = value_of_u32(30);
  core_->on_message(w, out);
  EXPECT_EQ(core_->replica_tag(), w.ts);
  EXPECT_EQ(core_->replica_value(), w.val);
  ASSERT_EQ(out.sends.size(), 1u);
  EXPECT_EQ(out.sends[0].msg.kind, msg_kind::write_ack);
  EXPECT_EQ(out.sends[0].to, process_id{2});

  // An older write arrives late: acked but not adopted.
  out.clear();
  message old = w;
  old.ts = tag{2, 0, process_id{4}};
  old.val = value_of_u32(20);
  core_->on_message(old, out);
  EXPECT_EQ(core_->replica_tag(), w.ts);
  ASSERT_EQ(out.sends.size(), 1u);

  // Equal tag (retransmission): ack, no change.
  out.clear();
  core_->on_message(w, out);
  EXPECT_EQ(core_->replica_value(), w.val);
  EXPECT_EQ(out.sends.size(), 1u);
}

TEST_F(CrashStopCore, ReadQueriesThenWritesBack) {
  outputs out;
  core_->invoke_read(out);
  const message q = out.broadcasts[0].msg;
  EXPECT_EQ(q.kind, msg_kind::read_query);
  out.clear();
  core_->on_message(read_ack_from(1, q, tag{2, 0, process_id{1}}, value_of_u32(21)), out);
  core_->on_message(read_ack_from(2, q, tag{5, 0, process_id{2}}, value_of_u32(52)), out);
  core_->on_message(read_ack_from(3, q, tag{1, 0, process_id{3}}, value_of_u32(11)), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message wb = out.broadcasts[0].msg;
  EXPECT_EQ(wb.kind, msg_kind::writeback);
  EXPECT_EQ(wb.ts, (tag{5, 0, process_id{2}}));  // freshest of the majority
  EXPECT_EQ(wb.val, value_of_u32(52));
  out.clear();
  core_->on_message(write_ack_from(1, wb, 0), out);
  core_->on_message(write_ack_from(2, wb, 0), out);
  core_->on_message(write_ack_from(3, wb, 0), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_TRUE(out.completion->is_read);
  EXPECT_EQ(out.completion->result, value_of_u32(52));
  EXPECT_EQ(out.completion->round_trips, 2u);
}

TEST_F(CrashStopCore, RecoverForbidden) {
  core_->crash();
  outputs out;
  EXPECT_THROW(core_->recover(1, out), precondition_error);
}

TEST_F(CrashStopCore, InvokeWhileBusyForbidden) {
  outputs out;
  core_->invoke_write(value_of_u32(1), out);
  EXPECT_THROW(core_->invoke_read(out), precondition_error);
  EXPECT_THROW(core_->invoke_write(value_of_u32(2), out), precondition_error);
}

TEST_F(CrashStopCore, RetransmitTargetsSilentProcesses) {
  outputs out;
  core_->invoke_write(value_of_u32(1), out);
  const message query = out.broadcasts[0].msg;
  ASSERT_EQ(out.timers.size(), 1u);
  const auto token = out.timers[0].token;
  out.clear();
  core_->on_message(sn_ack_from(2, query, 0), out);
  out.clear();
  core_->on_timer(token, out);
  // Re-sent to everyone except p2 (which answered).
  ASSERT_EQ(out.sends.size(), kN - 1);
  for (const auto& s : out.sends) EXPECT_NE(s.to, process_id{2});
  ASSERT_EQ(out.timers.size(), 1u);  // re-armed
  // The stale token no longer fires.
  outputs out2;
  core_->on_timer(token, out2);
  EXPECT_TRUE(out2.empty());
}

// ---------- Persistent emulation (Fig. 4) ----------

class PersistentCore : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<quorum_core>(persistent_policy(), process_id{0}, kN, store_, 7);
    outputs out;
    core_->start(out);
  }

  /// Drives a write up to the point where the prelog was requested.
  log_request start_write_until_prelog(value v) {
    outputs out;
    core_->invoke_write(std::move(v), out);
    const message query = out.broadcasts[0].msg;
    out.clear();
    for (std::uint32_t p = 1; p <= kMajority; ++p) {
      core_->on_message(sn_ack_from(p, query, 0), out);
    }
    // Fig. 4 line 12: the writer logs (writing, sn, v) before round 2.
    EXPECT_EQ(out.logs.size(), 1u);
    EXPECT_TRUE(out.broadcasts.empty());
    return out.logs[0];
  }

  storage::memory_store store_;
  std::unique_ptr<quorum_core> core_;
};

TEST_F(PersistentCore, InitializeStoresInitialRecords) {
  // Fig. 4 Initialize: store(writing, 0, ⊥) and store(written, 0, i, ⊥).
  EXPECT_TRUE(store_.retrieve(writing_key).has_value());
  EXPECT_TRUE(store_.retrieve(written_key).has_value());
  EXPECT_FALSE(store_.retrieve(recovered_key).has_value());
}

TEST_F(PersistentCore, WriteUsesTwoCausalLogs) {
  const log_request prelog = start_write_until_prelog(value_of_u32(77));
  EXPECT_EQ(prelog.key, writing_key);
  EXPECT_EQ(prelog.ctx, exec_context::client);
  EXPECT_EQ(prelog.depth_after, 1u);
  const auto rec = decode_tagged_value(prelog.record);
  EXPECT_EQ(rec.ts, (tag{1, 0, process_id{0}}));
  EXPECT_EQ(rec.val, value_of_u32(77));

  // Log completes -> round 2 broadcast carries depth 1.
  outputs out;
  core_->on_log_done(prelog.token, out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.kind, msg_kind::write);
  EXPECT_EQ(w.log_depth, 1u);

  // Servers log before acking: acks carry depth 2; the write reports 2
  // causal logs — the tight bound of Theorem 1.
  out.clear();
  core_->on_message(write_ack_from(1, w, 2), out);
  core_->on_message(write_ack_from(2, w, 2), out);
  core_->on_message(write_ack_from(3, w, 2), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->causal_logs, 2u);
  EXPECT_EQ(out.completion->round_trips, 2u);
}

TEST_F(PersistentCore, ServerLogsBeforeAcking) {
  outputs out;
  message w;
  w.kind = msg_kind::write;
  w.from = process_id{2};
  w.op_seq = 4;
  w.round = 2;
  w.epoch = 9;
  w.ts = tag{3, 0, process_id{2}};
  w.val = value_of_u32(33);
  w.log_depth = 1;
  core_->on_message(w, out);
  // Volatile state updated immediately, but no ack until the log is durable.
  EXPECT_EQ(core_->replica_tag(), w.ts);
  ASSERT_EQ(out.logs.size(), 1u);
  EXPECT_TRUE(out.sends.empty());
  EXPECT_EQ(out.logs[0].key, written_key);
  EXPECT_EQ(out.logs[0].ctx, exec_context::listener);
  EXPECT_EQ(out.logs[0].depth_after, 2u);

  outputs out2;
  core_->on_log_done(out.logs[0].token, out2);
  ASSERT_EQ(out2.sends.size(), 1u);
  EXPECT_EQ(out2.sends[0].msg.kind, msg_kind::write_ack);
  EXPECT_EQ(out2.sends[0].msg.log_depth, 2u);
  EXPECT_EQ(out2.sends[0].to, process_id{2});
}

TEST_F(PersistentCore, ServerAcksStaleWriteWithoutLogging) {
  outputs out;
  message w;
  w.kind = msg_kind::write;
  w.from = process_id{2};
  w.op_seq = 4;
  w.round = 2;
  w.epoch = 9;
  w.ts = tag{3, 0, process_id{2}};
  w.val = value_of_u32(33);
  core_->on_message(w, out);
  outputs tmp;
  core_->on_log_done(out.logs[0].token, tmp);

  // Older tag: immediate ack, no log.
  outputs out2;
  message old = w;
  old.ts = tag{1, 0, process_id{1}};
  old.op_seq = 5;
  core_->on_message(old, out2);
  EXPECT_TRUE(out2.logs.empty());
  ASSERT_EQ(out2.sends.size(), 1u);
  EXPECT_EQ(out2.sends[0].msg.log_depth, old.log_depth);
}

TEST_F(PersistentCore, CrashForgetsVolatileKeepsStable) {
  outputs out;
  message w;
  w.kind = msg_kind::write;
  w.from = process_id{1};
  w.op_seq = 2;
  w.round = 2;
  w.epoch = 3;
  w.ts = tag{4, 0, process_id{1}};
  w.val = value_of_u32(44);
  core_->on_message(w, out);
  outputs tmp;
  core_->on_log_done(out.logs[0].token, tmp);
  // Simulate the driver's durability point.
  store_.store(written_key, encode(tagged_value_record{w.ts, w.val}));

  core_->crash();
  EXPECT_FALSE(core_->is_up());
  EXPECT_EQ(core_->replica_tag(), initial_tag);  // volatile gone
  EXPECT_THROW(core_->on_message(w, out), precondition_error);

  outputs rec;
  core_->recover(99, rec);
  EXPECT_EQ(core_->replica_tag(), w.ts);  // restored from (written)
  EXPECT_EQ(core_->replica_value(), w.val);
}

TEST_F(PersistentCore, RecoveryFinishesPendingWrite) {
  // Crash after the prelog: the new value survives in (writing).
  const log_request prelog = start_write_until_prelog(value_of_u32(123));
  store_.store(prelog.key, prelog.record);  // durability point before crash
  outputs out;
  core_->on_log_done(prelog.token, out);    // round 2 broadcast out
  core_->crash();

  outputs rec;
  core_->recover(100, rec);
  EXPECT_FALSE(core_->ready());  // recovery round in progress
  // Fig. 4 Recover: re-runs round 2 with the logged (writing) record.
  ASSERT_EQ(rec.broadcasts.size(), 1u);
  const message w = rec.broadcasts[0].msg;
  EXPECT_EQ(w.kind, msg_kind::write);
  EXPECT_EQ(w.ts, (tag{1, 0, process_id{0}}));
  EXPECT_EQ(w.val, value_of_u32(123));

  outputs done;
  core_->on_message(write_ack_from(1, w, 1), done);
  core_->on_message(write_ack_from(2, w, 1), done);
  EXPECT_FALSE(core_->ready());
  core_->on_message(write_ack_from(3, w, 1), done);
  EXPECT_TRUE(core_->ready());
  EXPECT_TRUE(done.recovery_complete);
}

TEST_F(PersistentCore, RecoveryWithNoPendingWriteStillRunsHarmlessRound) {
  core_->crash();
  outputs rec;
  core_->recover(100, rec);
  ASSERT_EQ(rec.broadcasts.size(), 1u);
  // "Even if there are no previously unfinished writes, writing an old value
  // with an old timestamp will not replace any newer values."
  EXPECT_EQ(rec.broadcasts[0].msg.ts, initial_tag);
}

// ---------- Transient emulation (Fig. 5) ----------

class TransientCore : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<quorum_core>(transient_policy(), process_id{0}, kN, store_, 7);
    outputs out;
    core_->start(out);
  }

  storage::memory_store store_;
  std::unique_ptr<quorum_core> core_;
};

TEST_F(TransientCore, InitializeStoresRecoveryCounter) {
  ASSERT_TRUE(store_.retrieve(recovered_key).has_value());
  EXPECT_EQ(decode_recovery(*store_.retrieve(recovered_key)).recoveries, 0);
  EXPECT_FALSE(store_.retrieve(writing_key).has_value());  // no prelog record
}

TEST_F(TransientCore, WriteUsesOneCausalLogAndNoPrelog) {
  outputs out;
  core_->invoke_write(value_of_u32(5), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    core_->on_message(sn_ack_from(p, query, 0), out);
  }
  // No writer prelog: round 2 starts immediately at depth 0.
  EXPECT_TRUE(out.logs.empty());
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.log_depth, 0u);
  EXPECT_EQ(w.ts, (tag{1, 0, process_id{0}}));  // sn = max + rec(0) + 1

  out.clear();
  core_->on_message(write_ack_from(1, w, 1), out);
  core_->on_message(write_ack_from(2, w, 1), out);
  core_->on_message(write_ack_from(3, w, 1), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->causal_logs, 1u);  // the tight bound
  EXPECT_EQ(out.completion->round_trips, 2u);
}

TEST_F(TransientCore, RecoveryLogsIncrementedCounterAndSkipsFinishWrite) {
  core_->crash();
  outputs rec;
  core_->recover(100, rec);
  EXPECT_TRUE(rec.broadcasts.empty());  // no finish-write round
  ASSERT_EQ(rec.logs.size(), 1u);
  EXPECT_EQ(rec.logs[0].key, recovered_key);
  EXPECT_EQ(decode_recovery(rec.logs[0].record).recoveries, 1);
  EXPECT_FALSE(core_->ready());

  outputs done;
  core_->on_log_done(rec.logs[0].token, done);
  EXPECT_TRUE(done.recovery_complete);
  EXPECT_TRUE(core_->ready());
  EXPECT_EQ(core_->recoveries(), 1);
}

TEST_F(TransientCore, SequenceNumberBumpsByRecPlusOne) {
  // Recover twice (rec = 2), then write: sn := max + rec + 1 (Fig. 5 line 11).
  for (int i = 0; i < 2; ++i) {
    core_->crash();
    outputs rec;
    core_->recover(100 + i, rec);
    store_.store(recovered_key, rec.logs[0].record);
    outputs done;
    core_->on_log_done(rec.logs[0].token, done);
  }
  EXPECT_EQ(core_->recoveries(), 2);

  outputs out;
  core_->invoke_write(value_of_u32(9), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  core_->on_message(sn_ack_from(1, query, 4), out);
  core_->on_message(sn_ack_from(2, query, 2), out);
  core_->on_message(sn_ack_from(3, query, 0), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  // sn = 4 + 2 + 1; rec rides in the tag as tie-break (see timestamp.h).
  EXPECT_EQ(out.broadcasts[0].msg.ts, (tag{7, 2, process_id{0}}));
}

TEST_F(TransientCore, CounterSurvivesViaStableStorage) {
  core_->crash();
  outputs rec;
  core_->recover(100, rec);
  store_.store(recovered_key, rec.logs[0].record);
  outputs done;
  core_->on_log_done(rec.logs[0].token, done);

  core_->crash();
  outputs rec2;
  core_->recover(101, rec2);
  EXPECT_EQ(decode_recovery(rec2.logs[0].record).recoveries, 2);
}

// ---------- Weaker registers (section VI) ----------

TEST(WeakRegisters, AbdSwmrWriteSkipsQueryRound) {
  storage::memory_store st;
  quorum_core core(abd_swmr_policy(), process_id{0}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_write(value_of_u32(5), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  EXPECT_EQ(out.broadcasts[0].msg.kind, msg_kind::write);  // 1 round-trip
  EXPECT_EQ(out.broadcasts[0].msg.ts, (tag{1, 0, process_id{0}}));
  out.clear();
  message w;  // second write bumps the local counter
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    message a;
    a.kind = msg_kind::write_ack;
    a.from = process_id{p};
    a.op_seq = core.current_op_seq();
    a.round = 2;
    a.epoch = core.current_epoch();
    core.on_message(a, out);
  }
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->round_trips, 1u);
  out.clear();
  core.invoke_write(value_of_u32(6), out);
  w = out.broadcasts[0].msg;
  EXPECT_EQ(w.ts, (tag{2, 0, process_id{0}}));
}

TEST(WeakRegisters, OnlyProcessZeroMayWriteSwmr) {
  storage::memory_store st;
  quorum_core core(abd_swmr_policy(), process_id{1}, kN, st, 7);
  outputs out;
  core.start(out);
  EXPECT_THROW(core.invoke_write(value_of_u32(1), out), precondition_error);
  EXPECT_NO_THROW(core.invoke_read(out));  // readers are fine
}

TEST(WeakRegisters, RegularReadSkipsWriteBack) {
  storage::memory_store st;
  quorum_core core(regular_swmr_policy(), process_id{1}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_read(out);
  const message q = out.broadcasts[0].msg;
  out.clear();
  core.on_message(read_ack_from(0, q, tag{3, 0, process_id{0}}, value_of_u32(30)), out);
  core.on_message(read_ack_from(2, q, tag{2, 0, process_id{0}}, value_of_u32(20)), out);
  core.on_message(read_ack_from(3, q, tag{1, 0, process_id{0}}, value_of_u32(10)), out);
  ASSERT_TRUE(out.completion.has_value());  // no second round
  EXPECT_EQ(out.completion->result, value_of_u32(30));
  EXPECT_EQ(out.completion->round_trips, 1u);
  EXPECT_TRUE(out.broadcasts.empty());
}

TEST(WeakRegisters, SafeReadReturnsFirstReply) {
  storage::memory_store st;
  quorum_core core(safe_swmr_policy(), process_id{1}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_read(out);
  const message q = out.broadcasts[0].msg;
  out.clear();
  core.on_message(read_ack_from(3, q, tag{1, 0, process_id{0}}, value_of_u32(10)), out);
  core.on_message(read_ack_from(0, q, tag{3, 0, process_id{0}}, value_of_u32(30)), out);
  core.on_message(read_ack_from(2, q, tag{2, 0, process_id{0}}, value_of_u32(20)), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->result, value_of_u32(10));  // first, not freshest
}

// ---------- Ablation algorithms (section I-B) ----------

TEST(Ablation, AlgorithmAUsesTwoCausalLogsAndWaitsForAll) {
  storage::memory_store st;
  quorum_core core(ablation_a_policy(), process_id{0}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_write(value_of_u32(1), out);
  // Writer logs first (no query round)...
  ASSERT_EQ(out.logs.size(), 1u);
  EXPECT_TRUE(out.broadcasts.empty());
  outputs out2;
  core.on_log_done(out.logs[0].token, out2);
  ASSERT_EQ(out2.broadcasts.size(), 1u);
  const message w = out2.broadcasts[0].msg;
  EXPECT_EQ(w.log_depth, 1u);
  // ...and needs all n acks, not a majority.
  outputs out3;
  for (std::uint32_t p = 0; p < kN - 1; ++p) {
    message a;
    a.kind = msg_kind::write_ack;
    a.from = process_id{p};
    a.op_seq = w.op_seq;
    a.round = w.round;
    a.epoch = w.epoch;
    a.log_depth = 2;
    core.on_message(a, out3);
    EXPECT_FALSE(out3.completion.has_value());
  }
  message last;
  last.kind = msg_kind::write_ack;
  last.from = process_id{kN - 1};
  last.op_seq = w.op_seq;
  last.round = w.round;
  last.epoch = w.epoch;
  last.log_depth = 2;
  core.on_message(last, out3);
  ASSERT_TRUE(out3.completion.has_value());
  EXPECT_EQ(out3.completion->causal_logs, 2u);
}

TEST(Ablation, AlgorithmAPrimeUsesOneCausalLog) {
  storage::memory_store st;
  quorum_core core(ablation_a_prime_policy(), process_id{0}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_write(value_of_u32(1), out);
  // No prelog: the broadcast goes straight out at depth 0.
  EXPECT_TRUE(out.logs.empty());
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.log_depth, 0u);
  outputs out3;
  for (std::uint32_t p = 0; p < kN; ++p) {
    message a;
    a.kind = msg_kind::write_ack;
    a.from = process_id{p};
    a.op_seq = w.op_seq;
    a.round = w.round;
    a.epoch = w.epoch;
    a.log_depth = 1;  // every listener logs in parallel
    core.on_message(a, out3);
  }
  ASSERT_TRUE(out3.completion.has_value());
  EXPECT_EQ(out3.completion->causal_logs, 1u);
}

// ---------- Batch-aware retransmission ----------

message batched_write_ack(std::uint32_t p, const message& w,
                          std::initializer_list<register_id> covered) {
  message m;
  m.kind = msg_kind::write_ack;
  m.from = process_id{p};
  m.op_seq = w.op_seq;
  m.round = w.round;
  m.epoch = w.epoch;
  m.log_depth = w.log_depth + 1;
  for (const register_id reg : covered) m.batch.push_back({reg, tag{}, value{}});
  return m;
}

TEST(BatchRetransmission, TrimmedAndFullRepeatsMatchTheSettlementRules) {
  for (const bool trim : {true, false}) {
    storage::memory_store store;
    protocol_policy pol = persistent_policy();
    pol.trim_batch_retransmit = trim;
    quorum_core core(pol, process_id{0}, kN, store, 1);
    {
      outputs out;
      core.start(out);
    }
    outputs out;
    core.invoke_write_batch({{10, value_of_u32(1)}, {20, value_of_u32(2)}}, out);
    const message query = out.broadcasts[0].msg;
    outputs out2;
    for (std::uint32_t p = 1; p <= kMajority; ++p) {
      message a = sn_ack_from(p, query, 0);
      a.batch = {{10, tag{}, value{}}, {20, tag{}, value{}}};
      core.on_message(a, out2);
    }
    std::vector<std::uint64_t> tokens;
    for (const log_request& lr : out2.logs) tokens.push_back(lr.token);
    outputs out3;
    for (const std::uint64_t t : tokens) core.on_log_done(t, out3);
    ASSERT_EQ(out3.broadcasts.size(), 1u);
    const message w = out3.broadcasts[0].msg;
    ASSERT_EQ(out3.timers.size(), 1u);
    const std::uint64_t retrans_token = out3.timers[0].token;

    // p1 fully acks; p2 acks only register 10.
    outputs acks;
    core.on_message(batched_write_ack(1, w, {10, 20}), acks);
    core.on_message(batched_write_ack(2, w, {10}), acks);
    EXPECT_FALSE(acks.completion.has_value());

    outputs rt;
    core.on_timer(retrans_token, rt);
    if (trim) {
      // p1 covered everything -> silent. p2 gets only register 20. The
      // others (including the writer's own listener, p0) get both: neither
      // register is settled yet (10 has 2 of 3 votes, 20 has 1).
      ASSERT_EQ(rt.sends.size(), 4u);
      for (const send_request& s : rt.sends) {
        ASSERT_TRUE(s.msg.is_batch());
        if (s.to == process_id{2}) {
          ASSERT_EQ(s.msg.batch.size(), 1u);
          EXPECT_EQ(s.msg.batch[0].reg, 20u);
          EXPECT_EQ(s.msg.batch[0].val, value_of_u32(2));  // payload rides along
        } else {
          EXPECT_EQ(s.msg.batch.size(), 2u);
        }
      }
    } else {
      // Pre-optimization behavior: the full batch to every non-responder
      // (p2 answered partially, so it still counts as silent).
      ASSERT_EQ(rt.sends.size(), 4u);
      for (const send_request& s : rt.sends) {
        EXPECT_EQ(s.msg.batch.size(), 2u);
      }
    }

    // Completion is per-register majorities: after p3's full ack, register
    // 10 has {p1, p2, p3} but 20 only {p1, p3} — still open. p4's *trimmed*
    // ack covering just {20} settles it and completes the batch.
    outputs fin;
    core.on_message(batched_write_ack(3, w, {10, 20}), fin);
    EXPECT_FALSE(fin.completion.has_value());
    core.on_message(batched_write_ack(4, w, {20}), fin);
    ASSERT_TRUE(fin.completion.has_value());
    ASSERT_EQ(fin.completion->batch.size(), 2u);
    EXPECT_EQ(fin.completion->batch[0].reg, 10u);
    EXPECT_EQ(fin.completion->batch[1].reg, 20u);
  }
}

}  // namespace
}  // namespace remus::proto
