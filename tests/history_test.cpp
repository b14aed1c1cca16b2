// Tests for the history substrate: well-formedness, operation extraction,
// and the persistent/transient atomicity checkers — including the paper's
// Figure 1 runs and the proof runs rho1 (Theorem 1) and rho2-rho4
// (Theorem 2) encoded as concrete histories.
#include <gtest/gtest.h>

#include "history/atomicity.h"
#include "history/brute_force.h"
#include "history/operations.h"
#include "history/wellformed.h"
#include "history_builder.h"

namespace remus::history {
namespace {

// ---------- Well-formedness ----------

TEST(WellFormed, EmptyHistoryOk) {
  EXPECT_TRUE(check_well_formed({}).ok);
}

TEST(WellFormed, SequentialOpsOk) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r(1, 1);
  EXPECT_TRUE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, OverlappingInvocationsSameProcessRejected) {
  history_builder b;
  b.inv_w(0, 1).inv_r(0);
  const auto r = check_well_formed(b.log());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("busy"), std::string::npos);
}

TEST(WellFormed, ReplyWithoutInvocationRejected) {
  history_builder b;
  b.ret_w(0);
  EXPECT_FALSE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, MismatchedReplyKindRejected) {
  history_builder b;
  b.inv_w(0, 1).ret_r(0, 1);
  EXPECT_FALSE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, CrashClosesPendingOp) {
  history_builder b;
  b.inv_w(0, 1).crash(0).recover(0).inv_w(0, 2).ret_w(0);
  EXPECT_TRUE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, RecoveryWithoutCrashRejected) {
  history_builder b;
  b.recover(0);
  EXPECT_FALSE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, DoubleCrashRejected) {
  history_builder b;
  b.crash(0).crash(0);
  EXPECT_FALSE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, InvocationWhileCrashedRejected) {
  history_builder b;
  b.crash(0).inv_w(0, 1);
  EXPECT_FALSE(check_well_formed(b.log()).ok);
}

TEST(WellFormed, InvalidProcessRejected) {
  const history_log h{event{event_kind::invoke_read, no_process, {}, 0}};
  const auto r = check_well_formed(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("invalid process"), std::string::npos);
}

// ---------- Operation extraction ----------

TEST(Operations, CompletedAndPending) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(0, 2).crash(0).recover(0).inv_w(0, 3).ret_w(0);
  const auto ops = extract_operations(b.log(), criterion::persistent);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_FALSE(ops[0].pending());
  EXPECT_TRUE(ops[1].pending());
  EXPECT_FALSE(ops[2].pending());
}

TEST(Operations, PersistentDeadlineIsNextInvocation) {
  history_builder b;
  // events: 0 inv W1, 1 ret, 2 inv W2, 3 crash, 4 recover, 5 inv W3, 6 ret
  b.inv_w(0, 1).ret_w(0).inv_w(0, 2).crash(0).recover(0).inv_w(0, 3).ret_w(0);
  const auto ops = extract_operations(b.log(), criterion::persistent);
  EXPECT_EQ(ops[1].end2, 2 * 5 - 1);  // strictly before event 5 (inv W3)
}

TEST(Operations, TransientDeadlineIsNextWriteReply) {
  history_builder b;
  // events: 0 inv W1, 1 ret, 2 inv W2, 3 crash, 4 recover, 5 inv W3, 6 ret
  b.inv_w(0, 1).ret_w(0).inv_w(0, 2).crash(0).recover(0).inv_w(0, 3).ret_w(0);
  const auto ops = extract_operations(b.log(), criterion::transient);
  EXPECT_EQ(ops[1].end2, 2 * 6 - 1);  // strictly before event 6 (ret W3)
}

TEST(Operations, TransientDeadlineSkipsReads) {
  history_builder b;
  // 0 inv W1, 1 crash, 2 recover, 3 inv R, 4 ret R, 5 inv W2, 6 ret W2
  b.inv_w(0, 1).crash(0).recover(0).inv_r(0).ret_r_initial(0).inv_w(0, 2).ret_w(0);
  const auto ops = extract_operations(b.log(), criterion::transient);
  EXPECT_EQ(ops[0].end2, 2 * 6 - 1);  // read replies don't bound it
  const auto pops = extract_operations(b.log(), criterion::persistent);
  EXPECT_EQ(pops[0].end2, 2 * 3 - 1);  // but the read invocation does
}

TEST(Operations, NoDeadlineWithoutLaterEvents) {
  history_builder b;
  b.inv_w(0, 1).crash(0);
  for (const auto c : {criterion::persistent, criterion::transient}) {
    const auto ops = extract_operations(b.log(), c);
    EXPECT_EQ(ops[0].end2, pos2_infinity);
  }
}

// ---------- Atomicity checker: crash-free basics ----------

TEST(Atomicity, EmptyHistoryAtomic) {
  EXPECT_TRUE(check_persistent_atomicity({}).ok);
  EXPECT_TRUE(check_transient_atomicity({}).ok);
}

TEST(Atomicity, SequentialReadSeesLastWrite) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r(1, 1);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

TEST(Atomicity, SequentialReadOfStaleValueRejected) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(0, 2).ret_w(0).inv_r(1).ret_r(1, 1);
  const auto r = check_persistent_atomicity(b.log());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.usage_error);
}

TEST(Atomicity, ReadOfInitialBeforeAnyWrite) {
  history_builder b;
  b.inv_r(1).ret_r_initial(1).inv_w(0, 1).ret_w(0);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

TEST(Atomicity, ReadOfInitialAfterCompletedWriteRejected) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r_initial(1);
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
}

TEST(Atomicity, ConcurrentReadMayReturnEitherValue) {
  // W(2) concurrent with the read: both old and new value are legal.
  history_builder old_val;
  old_val.inv_w(0, 1).ret_w(0).inv_w(0, 2).inv_r(1).ret_r(1, 1).ret_w(0);
  EXPECT_TRUE(check_persistent_atomicity(old_val.log()).ok);

  history_builder new_val;
  new_val.inv_w(0, 1).ret_w(0).inv_w(0, 2).inv_r(1).ret_r(1, 2).ret_w(0);
  EXPECT_TRUE(check_persistent_atomicity(new_val.log()).ok);
}

TEST(Atomicity, NewOldReadInversionRejected) {
  // r1 returns the new value, a later non-overlapping r2 the old one.
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(0, 2);     // W(2) stays pending for a while
  b.inv_r(1).ret_r(1, 2);                 // r1 -> 2
  b.inv_r(1).ret_r(1, 1);                 // r2 -> 1 after r1: inversion
  b.ret_w(0);
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
  EXPECT_FALSE(check_transient_atomicity(b.log()).ok);
}

TEST(Atomicity, ReadYourWrites) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_r(0).ret_r(0, 1).inv_w(0, 2).ret_w(0).inv_r(0).ret_r(0, 2);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

TEST(Atomicity, ReadOfNeverWrittenValueRejected) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r(1, 99);
  const auto r = check_persistent_atomicity(b.log());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("never-written"), std::string::npos);
}

TEST(Atomicity, ReadPrecedingItsWriteRejected) {
  history_builder b;
  b.inv_r(1).ret_r(1, 5).inv_w(0, 5).ret_w(0);
  const auto r = check_persistent_atomicity(b.log());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("read precedes"), std::string::npos);
}

TEST(Atomicity, DuplicateWriteValuesAreUsageError) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(1, 1).ret_w(1);
  const auto r = check_persistent_atomicity(b.log());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.usage_error);
}

TEST(Atomicity, ConcurrentWritesAnyOrder) {
  // Two overlapping writes; a later read may see either, consistently.
  history_builder b;
  b.inv_w(0, 1).inv_w(1, 2).ret_w(0).ret_w(1);
  b.inv_r(2).ret_r(2, 1).inv_r(2).ret_r(2, 1);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);

  history_builder c;  // r1 overlaps W(2): may see 1, then 2 once it lands
  c.inv_w(0, 1).ret_w(0).inv_w(1, 2);
  c.inv_r(2).ret_r(2, 1).ret_w(1).inv_r(2).ret_r(2, 2);
  EXPECT_TRUE(check_persistent_atomicity(c.log()).ok);

  history_builder d;  // 2 then 1 then 2 again: impossible
  d.inv_w(0, 1).inv_w(1, 2).ret_w(0).ret_w(1);
  d.inv_r(2).ret_r(2, 2).inv_r(2).ret_r(2, 1).inv_r(2).ret_r(2, 2);
  EXPECT_FALSE(check_persistent_atomicity(d.log()).ok);
}

TEST(Atomicity, ReadsByDifferentProcessesMustAgreeOnOrder) {
  // p1 reads 2 then p2 (strictly later) reads 1: rejected.
  history_builder b;
  b.inv_w(0, 1).inv_w(3, 2).ret_w(0).ret_w(3);
  b.inv_r(1).ret_r(1, 2);
  b.inv_r(2).ret_r(2, 1);
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
}

// ---------- Pending writes without crashes ----------

TEST(Atomicity, PendingUnreadWriteIsDroppable) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(1, 2);  // W(2) never returns, never read
  b.inv_r(2).ret_r(2, 1);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

TEST(Atomicity, PendingWriteMayTakeEffect) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(1, 2);  // W(2) pending forever
  b.inv_r(2).ret_r(2, 2);              // but its value is read
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

TEST(Atomicity, PendingWriteEffectsMustStayConsistent) {
  // Read 2 (pending write's value), then read 1 again: inversion.
  history_builder b;
  b.inv_w(0, 1).ret_w(0).inv_w(1, 2);
  b.inv_r(2).ret_r(2, 2).inv_r(2).ret_r(2, 1);
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
  EXPECT_FALSE(check_transient_atomicity(b.log()).ok);
}

// ---------- The paper's runs ----------

// Figure 1 / run rho1 (Theorem 1): p1 writes v1, crashes inside W(v2),
// recovers, writes v3. A read invoked after inv(W(v3)) returns v1 and a
// subsequent read returns v2. Persistent atomicity forbids it (property P1);
// transient atomicity allows it (W(v2) may linearize between the reads).
TEST(PaperRuns, Rho1TransientButNotPersistent) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);          // W(v1)
  b.inv_w(0, 2).crash(0);          // W(v2) cut short
  b.recover(0);
  b.inv_w(0, 3);                   // W(v3) starts
  b.inv_r(1).ret_r(1, 1);          // R1 -> v1 (invoked after inv W(v3))
  b.inv_r(1).ret_r(1, 2);          // R2 -> v2 (subsequent!)
  b.ret_w(0);                      // W(v3) returns
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
  EXPECT_TRUE(check_transient_atomicity(b.log()).ok);
}

// Same run, but the reads also straddle v3: after reading v3, reading v2 is
// wrong even transiently (v2 cannot linearize after W(v3)'s reply).
TEST(PaperRuns, OrphanValueAfterNextWriteReplyRejectedEvenTransiently) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2).crash(0);
  b.recover(0);
  b.inv_w(0, 3).ret_w(0);          // W(v3) completes
  b.inv_r(1).ret_r(1, 3);          // read sees v3
  b.inv_r(1).ret_r(1, 2);          // then v2: beyond the weak deadline
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
  EXPECT_FALSE(check_transient_atomicity(b.log()).ok);
}

// Figure 1, persistent side: after recovery the unfinished W(v2) appears
// completed before W(v3); reads see v2 then v3.
TEST(PaperRuns, PersistentRunOfFigure1Accepted) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2).crash(0);
  b.recover(0);
  b.inv_w(0, 3);
  b.inv_r(1).ret_r(1, 2);
  b.ret_w(0);
  b.inv_r(1).ret_r(1, 3);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
  EXPECT_TRUE(check_transient_atomicity(b.log()).ok);
}

// Runs rho2 and rho3 (Theorem 2): reader crashes between/after reads; each
// run on its own is fine.
TEST(PaperRuns, Rho2Accepted) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2);                    // W(v2) in progress
  b.crash(1).recover(1);
  b.inv_r(1).ret_r(1, 1);           // read after recovery -> v1
  b.ret_w(0);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

TEST(PaperRuns, Rho3Accepted) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2);
  b.inv_r(1).ret_r(1, 2);           // read before crash -> v2
  b.crash(1).recover(1);
  b.ret_w(0);
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

// Run rho4 (Theorem 2): reading v2, crashing, then reading v1 is not
// atomic in any sense — the read order inverts the write order.
TEST(PaperRuns, Rho4RejectedByBothCriteria) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2);                    // W(v2) pending throughout
  b.inv_r(1).ret_r(1, 2);           // R -> v2
  b.crash(1).recover(1);
  b.inv_r(1).ret_r(1, 1);           // R -> v1 after recovery
  EXPECT_FALSE(check_persistent_atomicity(b.log()).ok);
  EXPECT_FALSE(check_transient_atomicity(b.log()).ok);
}

// Transient relies on the *same process* continuing; another process's
// write does not extend the weak deadline.
TEST(PaperRuns, WeakCompletionIsPerProcess) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2).crash(0);           // p0's W(v2) pending
  b.inv_w(1, 3).ret_w(1);           // p1 completes W(v3)
  b.inv_r(2).ret_r(2, 3);           // sees v3
  b.inv_r(2).ret_r(2, 2);           // then v2: p0 never wrote again, so the
                                    // weak deadline never arrived — allowed!
  EXPECT_TRUE(check_transient_atomicity(b.log()).ok);
  // Persistent: p0 has no next invocation either, so W(v2) is also
  // unconstrained there. Both accept: the pending write floats freely.
  EXPECT_TRUE(check_persistent_atomicity(b.log()).ok);
}

// Once p0 recovers and completes another write, v2 can no longer appear
// after it (transient), nor after p0's next invocation (persistent).
TEST(PaperRuns, WeakDeadlineEnforced) {
  history_builder b;
  b.inv_w(0, 1).ret_w(0);
  b.inv_w(0, 2).crash(0);
  b.recover(0);
  b.inv_w(0, 3).ret_w(0);
  b.inv_r(1).ret_r(1, 3).inv_r(1).ret_r(1, 2);
  EXPECT_FALSE(check_transient_atomicity(b.log()).ok);
}

// ---------- Golden explanations ----------
//
// One hand-built history per way check_atomicity can fail, with the full
// explanation pinned byte for byte: the text is the checker's user
// interface (fuzz repros and test failures print it), so any change to it
// must be deliberate. The constraint-cycle cases name each constraint kind
// (P1/C1/C2/C3, and the initial write's edge) in at least one pinned edge.
// No case pins a "contradictory constraint": every constraint joins two
// distinct writes, so no history can produce a self-loop.

struct golden_case {
  const char* name;
  history_log h;
  criterion c;
  bool usage_error;
  const char* explanation;
};

std::vector<golden_case> golden_cases() {
  std::vector<golden_case> out;
  const auto add = [&](const char* name, const history_builder& b, criterion c,
                       bool usage_error, const char* explanation) {
    out.push_back({name, b.log(), c, usage_error, explanation});
  };
  {
    history_builder b;  // C0: the read ends before its write starts
    b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r(1, 5).inv_w(0, 5).ret_w(0);
    add("c0_read_precedes_its_write", b, criterion::persistent, false,
        "read precedes the write it returns: p1 R->u32:5 @[2,3] vs p0 W(u32:5) @[4,5]");
  }
  {
    history_builder b;
    b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r(1, 99);
    add("never_written_value", b, criterion::persistent, false,
        "read returned a never-written value: p1 R->u32:99 @[2,3]");
  }
  {
    history_builder b;  // W1 then W2 (P1), then a read of 1 after W2 (C1)
    b.inv_w(0, 1).ret_w(0).inv_w(0, 2).ret_w(0).inv_r(1).ret_r(1, 1);
    add("cycle_p1_c1", b, criterion::persistent, false,
        "no legal sequential completion; constraint cycle:\n"
        "  p0 W(u32:1) @[0,1] -> p0 W(u32:2) @[2,3]   [p0 W(u32:1) @[0,1] precedes p0 W(u32:2) @[2,3]]\n"
        "  p0 W(u32:2) @[2,3] -> p0 W(u32:1) @[0,1]   [p0 W(u32:2) @[2,3] precedes p1 R->u32:1 @[4,5] which returns p0 W(u32:1) @[0,1]]\n");
  }
  {
    history_builder b;  // the initial value read after a completed write
    b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r_initial(1);
    add("cycle_initial_c1", b, criterion::persistent, false,
        "no legal sequential completion; constraint cycle:\n"
        "  W0(initial) -> p0 W(u32:1) @[0,1]   [initial value precedes all writes]\n"
        "  p0 W(u32:1) @[0,1] -> W0(initial)   [p0 W(u32:1) @[0,1] precedes p1 R->_|_ @[2,3] which returns W0(initial)]\n");
  }
  {
    history_builder b;  // W(1) pending; a read of 1 wholly precedes W(2) (C2),
                        // W(2) wholly precedes a second read of 1 (C1)
    b.inv_w(0, 1).inv_r(2).ret_r(2, 1).inv_w(1, 2).ret_w(1).inv_r(2).ret_r(2, 1);
    add("cycle_c2_c1", b, criterion::persistent, false,
        "no legal sequential completion; constraint cycle:\n"
        "  p0 W(u32:1) pending @[0,-] -> p1 W(u32:2) @[3,4]   [p2 R->u32:1 @[1,2] (returning p0 W(u32:1) pending @[0,-]) precedes p1 W(u32:2) @[3,4]]\n"
        "  p1 W(u32:2) @[3,4] -> p0 W(u32:1) pending @[0,-]   [p1 W(u32:2) @[3,4] precedes p2 R->u32:1 @[5,6] which returns p0 W(u32:1) pending @[0,-]]\n");
  }
  {
    history_builder b;  // new-old inversion: W1 before W2 (P1), read 2 then 1 (C3)
    b.inv_w(0, 1).ret_w(0).inv_w(0, 2).inv_r(1).ret_r(1, 2).inv_r(1).ret_r(1, 1).ret_w(0);
    add("cycle_p1_c3", b, criterion::persistent, false,
        "no legal sequential completion; constraint cycle:\n"
        "  p0 W(u32:1) @[0,1] -> p0 W(u32:2) @[2,7]   [p0 W(u32:1) @[0,1] precedes p0 W(u32:2) @[2,7]]\n"
        "  p0 W(u32:2) @[2,7] -> p0 W(u32:1) @[0,1]   [p1 R->u32:2 @[3,4] precedes p1 R->u32:1 @[5,6] but they return opposite-ordered writes]\n");
  }
  {
    history_builder b;  // both writes done, then reads of 2, 1, 2: C1 both ways
    b.inv_w(0, 1).inv_w(1, 2).ret_w(0).ret_w(1);
    b.inv_r(2).ret_r(2, 2).inv_r(2).ret_r(2, 1).inv_r(2).ret_r(2, 2);
    add("cycle_c1_c1", b, criterion::persistent, false,
        "no legal sequential completion; constraint cycle:\n"
        "  p0 W(u32:1) @[0,2] -> p1 W(u32:2) @[1,3]   [p0 W(u32:1) @[0,2] precedes p2 R->u32:2 @[4,5] which returns p1 W(u32:2) @[1,3]]\n"
        "  p1 W(u32:2) @[1,3] -> p0 W(u32:1) @[0,2]   [p1 W(u32:2) @[1,3] precedes p2 R->u32:1 @[6,7] which returns p0 W(u32:1) @[0,2]]\n");
  }
  {
    history_builder b;  // run rho1: a crash-cut write bounded by the next invocation
    b.inv_w(0, 1).ret_w(0).inv_w(0, 2).crash(0).recover(0).inv_w(0, 3);
    b.inv_r(1).ret_r(1, 1).inv_r(1).ret_r(1, 2).ret_w(0);
    add("cycle_pending_write_persistent", b, criterion::persistent, false,
        "no legal sequential completion; constraint cycle:\n"
        "  p0 W(u32:1) @[0,1] -> p0 W(u32:2) pending @[2,-]   [p0 W(u32:1) @[0,1] precedes p0 W(u32:2) pending @[2,-]]\n"
        "  p0 W(u32:2) pending @[2,-] -> p0 W(u32:1) @[0,1]   [p0 W(u32:2) pending @[2,-] precedes p1 R->u32:1 @[6,7] which returns p0 W(u32:1) @[0,1]]\n");
  }
  {
    history_builder b;  // past the weak deadline (transient)
    b.inv_w(0, 1).ret_w(0).inv_w(0, 2).crash(0).recover(0).inv_w(0, 3).ret_w(0);
    b.inv_r(1).ret_r(1, 3).inv_r(1).ret_r(1, 2);
    add("cycle_pending_write_transient", b, criterion::transient, false,
        "no legal sequential completion; constraint cycle:\n"
        "  p0 W(u32:2) pending @[2,-] -> p0 W(u32:3) @[5,6]   [p0 W(u32:2) pending @[2,-] precedes p1 R->u32:3 @[7,8] which returns p0 W(u32:3) @[5,6]]\n"
        "  p0 W(u32:3) @[5,6] -> p0 W(u32:2) pending @[2,-]   [p0 W(u32:3) @[5,6] precedes p1 R->u32:2 @[9,10] which returns p0 W(u32:2) pending @[2,-]]\n");
  }
  {
    history_builder b;
    b.inv_w(0, 1).ret_w(0).inv_w(1, 1).ret_w(1);
    add("usage_duplicate_value", b, criterion::persistent, true,
        "checker requires unique write values: p1 W(u32:1) @[2,3]");
  }
  {
    history_builder b;
    b.inv_w(0, 1).ret_w(0);
    golden_case g{"usage_initial_value", b.log(), criterion::persistent, true,
                  "checker requires non-initial write values: p1 W(_|_) @[2,3]"};
    g.h.push_back(event{event_kind::invoke_write, process_id{1}, initial_value(), 2000});
    g.h.push_back(event{event_kind::reply_write, process_id{1}, {}, 3000});
    out.push_back(std::move(g));
  }
  {
    history_builder b;
    b.inv_w(0, 1).inv_r(0);
    add("usage_ill_formed", b, criterion::persistent, true,
        "ill-formed history: invocation while busy at event 1 (p0 inv R)");
  }
  return out;
}

TEST(GoldenExplanations, EveryFailurePathIsPinned) {
  for (const golden_case& g : golden_cases()) {
    const check_result r = check_atomicity(g.h, g.c);
    EXPECT_FALSE(r.ok) << g.name;
    EXPECT_EQ(r.usage_error, g.usage_error) << g.name;
    EXPECT_EQ(r.explanation, g.explanation) << g.name;
  }
}

// ---------- Cross-validation against the brute-force checker ----------

TEST(BruteForce, AgreesOnPaperRuns) {
  const auto cases = [] {
    std::vector<history_log> hs;
    {
      history_builder b;
      b.inv_w(0, 1).ret_w(0).inv_w(0, 2).crash(0).recover(0).inv_w(0, 3);
      b.inv_r(1).ret_r(1, 1).inv_r(1).ret_r(1, 2).ret_w(0);
      hs.push_back(b.log());
    }
    {
      history_builder b;
      b.inv_w(0, 1).ret_w(0).inv_w(0, 2).inv_r(1).ret_r(1, 2);
      b.crash(1).recover(1).inv_r(1).ret_r(1, 1);
      hs.push_back(b.log());
    }
    {
      history_builder b;
      b.inv_w(0, 1).ret_w(0).inv_r(1).ret_r(1, 1);
      hs.push_back(b.log());
    }
    return hs;
  }();
  for (const auto& h : cases) {
    for (const auto c : {criterion::persistent, criterion::transient}) {
      const auto fast = check_atomicity(h, c);
      const auto slow = check_atomicity_brute_force(h, c);
      EXPECT_EQ(fast.ok, slow.ok) << to_string(h) << fast.explanation;
    }
  }
}

}  // namespace
}  // namespace remus::history
