// The simulator's timing model (paper section 5.1).
//
// All constants default to the values measured or assumed by the paper for
// the Intel iPSC/2 (16 MHz 80386/80387 with Direct-Connect modules). They
// are plain data so the ablation benches can override them.
#pragma once

#include <algorithm>

#include "runtime/isa.hpp"
#include "support/simtime.hpp"

namespace pods::sim {

struct Timing {
  // --- Execution Unit instruction times, measured on the iPSC/2 (table in
  //     section 5.1) --------------------------------------------------------
  SimTime intAdd = usec(0.300);
  SimTime intSub = usec(0.300);
  SimTime bitLogical = usec(0.558);
  SimTime fNeg = usec(0.555);
  SimTime fCmp = usec(5.803);
  SimTime fPow = usec(96.418);
  SimTime fAbs = usec(12.626);
  SimTime fSqrt = usec(18.929);
  SimTime fMul = usec(7.217);
  SimTime fDiv = usec(10.707);
  SimTime fAdd = usec(6.753);
  SimTime fSub = usec(6.757);
  // Integer multiply/divide/compare are not in the paper's table; they are
  // derived from its 2.7 us local-array-read budget (1 int multiply + 1 int
  // add + 3 int comparisons + 1 local read = 2.7 us with read = 0.3 us).
  SimTime intMul = usec(1.200);
  SimTime intDiv = usec(2.400);
  SimTime intCmp = usec(0.300);
  // Transcendentals beyond the paper's table, extrapolated from fPow/fSqrt.
  SimTime fExp = usec(60.0);
  SimTime fLog = usec(60.0);
  SimTime fSin = usec(40.0);
  SimTime fCos = usec(40.0);

  // --- Execution Unit structural costs -------------------------------------
  SimTime contextSwitch = usec(1.312);   // 80386 CALL ptr16:32, worst case
  SimTime localArrayRead = usec(2.7);    // addr calc + 3 checks + read
  SimTime addrCalc = usec(2.4);          // addr calc + checks (writes, RF)

  // --- Memory Manager -------------------------------------------------------
  SimTime frameListOp = usec(0.9);       // 3 memory references

  // --- Matching Unit --------------------------------------------------------
  SimTime matchTime = usec(15.0);        // hash lookup on (SP id, frame ptr)

  // --- Array Manager (section 5.1 task table) -------------------------------
  SimTime memRead = usec(0.3);
  SimTime memWrite = usec(0.4);
  SimTime unitSignal = usec(1.0);        // signal between units on one PE
  SimTime enqueueRead = usec(2.9);       // push an early read: 3r + 5w
  SimTime allocArray = usec(100.0);

  // --- Routing Unit / network ----------------------------------------------
  // Dunigan: <=100 bytes -> 390 us; tokens are batched in groups of 20, so
  // each token costs 390/20 = 19.5 us of Routing Unit time.
  int tokenBatch = 20;
  SimTime smallMessage = usec(390.0);
  // Dunigan: > 100 bytes -> 697 + 0.4 * length us (page transfers).
  SimTime largeMessageBase = usec(697.0);
  SimTime perByte = usec(0.4);
  SimTime networkHop = usec(2.5);        // 100 MB/s, ~100 B, average 2.5 hops

  // --- Array layout ---------------------------------------------------------
  int pageElems = 32;  // "32 elements or approximately 2 kilobytes"
  int elemBytes = 8;   // we store 8-byte values; page messages are 256 bytes

  /// Routing Unit service time for one (batched) token.
  SimTime tokenRoute() const { return {smallMessage.ns / tokenBatch}; }

  /// Routing Unit service time for one page message.
  SimTime pageMessage() const {
    return largeMessageBase + perByte * (static_cast<std::int64_t>(pageElems) *
                                         elemBytes);
  }

  /// Least simulated time from an action on one PE to any event it causes on
  /// another: the signal to the Routing Unit, the cheaper of the two message
  /// services, and the network traversal (23 us with the defaults). The
  /// simulator's conservative lookahead rests on it, and every cross-PE push
  /// is checked against it.
  SimTime crossPeLatency() const {
    return unitSignal + std::min(tokenRoute(), pageMessage()) + networkHop;
  }

  /// Execution Unit cost of one instruction. `realOp` selects the floating
  /// point cost for arithmetic executed on Real operands.
  SimTime euCost(Op op, bool realOp) const;
};

}  // namespace pods::sim
