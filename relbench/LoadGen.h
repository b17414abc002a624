//===- relbench/LoadGen.h - One load connection -----------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A load connection drives one RelClient from one thread: it frames
/// every request itself with harness-owned request ids (RelClient's
/// pipelined API has no query sender, and its private id counter would
/// collide with raw frames), sends with sendRaw, and waits for replies
/// with ppoll on the client's socket so that timers and per-request
/// deadlines fire even when the server goes quiet.
///
/// recvReply is called only once a whole reply frame is buffered. The
/// server writes a reply as two segments (length prefix, then body) on
/// a socket without TCP_NODELAY, so Nagle's algorithm can hold the body
/// until the client's next segment acknowledges the prefix. A sender
/// blocked reading the rest of that frame would send nothing and wait
/// for its own delayed ACK (~40 ms); an open loop must keep sending on
/// schedule instead. A closed-loop connection, which sends only when a
/// reply completes, does pay that wait, as any such client does today.
///
/// A request that gets an Error reply, a wrong answer, no reply before
/// its deadline, or a transport failure is counted as failed; a
/// floor-guard abort the model predicted is a valid outcome.
///
//===----------------------------------------------------------------------===//

#ifndef RELBENCH_LOADGEN_H
#define RELBENCH_LOADGEN_H

#include "Report.h"
#include "Workload.h"

#include "server/Client.h"

#include <deque>
#include <unordered_map>

namespace relbench {

/// One traced request: scheduled, sent and replied times.
struct RequestSpan {
  uint64_t Id;
  bool Read;
  Clock::time_point Sched, Sent, Replied;
};

/// Open-loop latencies are kept per slice of the phase (by scheduled
/// send time), so a percentile can be taken per slice.
constexpr unsigned LatencySlices = 6;

/// What one connection saw during one phase.
struct PhaseStats {
  /// Replies outside [Start, End) do not count as completed in the phase.
  Clock::time_point Start, End;
  /// Record latencies (and spans, when Traced).
  bool Record = false;
  bool Traced = false;
  /// Latencies by class and slice, microseconds.
  std::vector<double> ReadUs[LatencySlices], WriteUs[LatencySlices];
  std::vector<double> LateUs;
  std::vector<RequestSpan> Spans;
  uint64_t Completed = 0, Failed = 0, Aborted = 0;

  void merge(const PhaseStats &O);
  size_t reads() const;
  size_t writes() const;
};

class LoadConn {
public:
  LoadConn(unsigned Idx, const Workload &W, OpStream &Gen)
      : Idx(Idx), W(W), Gen(Gen), All(W.Spec->columns()) {}

  bool connect(uint16_t Port, std::string *Err) {
    return Cli.connect(Port, Err);
  }

  /// Keeps \p Window requests outstanding until \p S.End, then drains.
  void closedLoop(unsigned Window, PhaseStats &S);

  /// Poisson arrivals at \p Rate per second (gaps drawn from
  /// \p ArrivalSeed) from \p Start until \p S.End, then drains. Latency
  /// counts from each request's scheduled send time.
  void openLoop(double Rate, uint64_t ArrivalSeed, Clock::time_point Start,
                PhaseStats &S);

  /// Sends \p Op now and waits for its reply or its deadline.
  void sendOne(BenchOp Op, PhaseStats &S);

  /// Waits for outstanding replies until \p Deadline; what is still
  /// unanswered then has failed.
  void drain(Clock::time_point Deadline, PhaseStats &S);

  /// The client, for blocking calls once nothing is outstanding. A
  /// blocking read is woken only once SO_RCVLOWAT bytes are buffered,
  /// so this restores the default mark first.
  relc::RelClient &blockingClient();
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Seconds a request may stay unanswered before it counts as failed.
  double Timeout = 5.0;

private:
  struct Inflight {
    BenchOp Op;
    Clock::time_point Sched, Sent;
    /// Reads: no write to the read's keys was in flight at send time,
    /// so the answer must match the model exactly.
    bool Quiet = false;
  };

  void send(BenchOp Op, Clock::time_point Sched, PhaseStats &S);
  /// True when the next reply frame is wholly buffered, so recvReply
  /// will not block. Otherwise raises SO_RCVLOWAT to the frame's size,
  /// so that poll wakes only once it is complete.
  bool frameBuffered();
  void setLowWater(size_t Bytes);
  /// Handles replies until one arrives or \p Until passes, then every
  /// reply already buffered; expires overdue requests.
  void receive(Clock::time_point Until, PhaseStats &S);
  void handle(const relc::RelClient::Reply &R, Clock::time_point Now,
              PhaseStats &S);
  bool readMatches(Inflight &F, const std::vector<uint8_t> &Extra) const;
  void fail(PhaseStats &S);
  void expire(Clock::time_point Now, PhaseStats &S);
  Clock::time_point earliestDeadline() const;
  void settleKeys(const BenchOp &Op);

  unsigned Idx;
  const Workload &W;
  OpStream &Gen;
  relc::ColumnSet All;
  relc::RelClient Cli;
  bool Dead = false;
  /// The socket's SO_RCVLOWAT; frames above the cap are read blocking.
  size_t LowWater = 1;
  static constexpr size_t MaxLowWater = 1 << 18;
  uint64_t NextId = 1;
  uint64_t Attempted = 0, Failed = 0;
  std::unordered_map<uint64_t, Inflight> Out;
  /// Request ids in send order with their deadlines (lazy deletion).
  std::deque<std::pair<uint64_t, Clock::time_point>> Order;
  /// Writes in flight per model key.
  std::unordered_map<int64_t, uint32_t> Pending;
};

} // namespace relbench

#endif // RELBENCH_LOADGEN_H
