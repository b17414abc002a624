//===- relbench/LoadGen.cpp - One load connection -------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"

#include "workloads/Rng.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <thread>

using namespace relc;

namespace relbench {

/// How long a phase waits for its last replies.
constexpr auto DrainTime = std::chrono::seconds(5);

static double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

static Clock::duration seconds(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

void PhaseStats::merge(const PhaseStats &O) {
  for (unsigned I = 0; I != LatencySlices; ++I) {
    ReadUs[I].insert(ReadUs[I].end(), O.ReadUs[I].begin(), O.ReadUs[I].end());
    WriteUs[I].insert(WriteUs[I].end(), O.WriteUs[I].begin(),
                      O.WriteUs[I].end());
  }
  LateUs.insert(LateUs.end(), O.LateUs.begin(), O.LateUs.end());
  Spans.insert(Spans.end(), O.Spans.begin(), O.Spans.end());
  Completed += O.Completed;
  Failed += O.Failed;
  Aborted += O.Aborted;
}

size_t PhaseStats::reads() const {
  size_t N = 0;
  for (const std::vector<double> &V : ReadUs)
    N += V.size();
  return N;
}

size_t PhaseStats::writes() const {
  size_t N = 0;
  for (const std::vector<double> &V : WriteUs)
    N += V.size();
  return N;
}

void LoadConn::fail(PhaseStats &S) {
  ++Failed;
  ++S.Failed;
}

void LoadConn::send(BenchOp Op, Clock::time_point Sched, PhaseStats &S) {
  // Ids are unique across connections so trace spans never collide.
  uint64_t Id = (uint64_t(Idx) << 40) | NextId++;
  std::vector<uint8_t> Body = encodeRequest(Op, Id, All);
  ++Attempted;
  Inflight F{std::move(Op), Sched, Clock::now(), true};
  if (Dead || !Cli.sendRaw(Body)) {
    Dead = true;
    fail(S);
    return;
  }
  if (F.Op.isRead()) {
    for (int64_t K : F.Op.Keys)
      F.Quiet &= Pending.count(K) == 0;
  } else {
    for (int64_t K : F.Op.Keys)
      ++Pending[K];
  }
  Order.emplace_back(Id, F.Sent + seconds(Timeout));
  Out.emplace(Id, std::move(F));
}

void LoadConn::settleKeys(const BenchOp &Op) {
  if (Op.isRead())
    return;
  for (int64_t K : Op.Keys) {
    auto It = Pending.find(K);
    if (It != Pending.end() && --It->second == 0)
      Pending.erase(It);
  }
}

bool LoadConn::readMatches(Inflight &F,
                           const std::vector<uint8_t> &Extra) const {
  wire::ByteReader Rd(Extra);
  uint32_t N;
  if (!Rd.u32(N))
    return false;
  std::vector<Tuple> Own;
  for (uint32_t I = 0; I != N; ++I) {
    Tuple T;
    if (!Rd.tuple(T, All.size()) || T.columns() != All ||
        !T.extends(F.Op.A) || !W.rowValid(T))
      return false;
    if (W.owner(T) == Idx)
      Own.push_back(std::move(T));
  }
  if (Rd.remaining() != 0)
    return false;
  if (!F.Quiet)
    return true;
  std::sort(Own.begin(), Own.end());
  std::sort(F.Op.Expected.begin(), F.Op.Expected.end());
  return Own == F.Op.Expected;
}

void LoadConn::handle(const RelClient::Reply &R, Clock::time_point Now,
                      PhaseStats &S) {
  auto It = Out.find(R.ReqId);
  if (It == Out.end())
    return; // answer to a request that already counted as failed
  Inflight &F = It->second;
  bool Ok;
  if (F.Op.isRead())
    Ok = R.ok() && readMatches(F, R.Extra);
  else
    Ok = (R.ok() || R.aborted()) && R.aborted() == F.Op.ExpectAbort;
  if (Ok) {
    // A failed write leaves its keys pending for good: their state is
    // unknown, so later reads of them are not checked exactly.
    settleKeys(F.Op);
    if (R.aborted())
      ++S.Aborted;
    if (Now >= S.Start && Now < S.End)
      ++S.Completed;
    if (S.Record) {
      unsigned Slice = static_cast<unsigned>(std::min<double>(
          LatencySlices - 1, LatencySlices * secondsBetween(S.Start, F.Sched) /
                                 secondsBetween(S.Start, S.End)));
      (F.Op.isRead() ? S.ReadUs : S.WriteUs)[Slice].push_back(
          microsBetween(F.Sched, Now));
      S.LateUs.push_back(microsBetween(F.Sched, F.Sent));
      if (S.Traced)
        S.Spans.push_back({R.ReqId, F.Op.isRead(), F.Sched, F.Sent, Now});
    }
  } else {
    fail(S);
  }
  Out.erase(It);
}

Clock::time_point LoadConn::earliestDeadline() const {
  return Order.empty() ? Clock::time_point::max() : Order.front().second;
}

void LoadConn::expire(Clock::time_point Now, PhaseStats &S) {
  while (!Order.empty()) {
    auto [Id, Deadline] = Order.front();
    auto It = Out.find(Id);
    if (It != Out.end()) {
      if (Deadline > Now)
        return;
      Out.erase(It);
      fail(S);
    }
    Order.pop_front();
  }
}

void LoadConn::setLowWater(size_t Bytes) {
  if (Bytes == LowWater)
    return;
  int V = static_cast<int>(Bytes);
  ::setsockopt(Cli.fd(), SOL_SOCKET, SO_RCVLOWAT, &V, sizeof(V));
  LowWater = Bytes;
}

bool LoadConn::frameBuffered() {
  int Avail = 0;
  if (::ioctl(Cli.fd(), FIONREAD, &Avail) != 0)
    return true; // let recvReply report the broken socket
  size_t Need = 4;
  uint8_t Prefix[4];
  if (Avail >= 4 &&
      ::recv(Cli.fd(), Prefix, 4, MSG_PEEK | MSG_DONTWAIT) == 4) {
    Need += Prefix[0] | Prefix[1] << 8 | Prefix[2] << 16 |
            static_cast<size_t>(Prefix[3]) << 24;
    if (static_cast<size_t>(Avail) >= Need)
      return true;
    if (Need > MaxLowWater) {
      // A blocking read wakes only at the low-water mark: drop it.
      setLowWater(1);
      return true;
    }
  }
  setLowWater(Need);
  return false;
}

RelClient &LoadConn::blockingClient() {
  setLowWater(1);
  return Cli;
}

void LoadConn::receive(Clock::time_point Until, PhaseStats &S) {
  if (Out.empty() || Dead) {
    std::this_thread::sleep_until(Until);
    return;
  }
  Until = std::min(Until, earliestDeadline());
  auto Wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::max(Clock::duration::zero(), Until - Clock::now()));
  timespec Ts{static_cast<time_t>(Wait.count() / 1000000000),
              static_cast<long>(Wait.count() % 1000000000)};
  pollfd P{Cli.fd(), POLLIN, 0};
  int Rc = ppoll(&P, 1, &Ts, nullptr);
  bool Broken = Rc > 0 && (P.revents & (POLLHUP | POLLERR));
  while (Rc > 0 && !Out.empty() && frameBuffered()) {
    RelClient::Reply R;
    if (!Cli.recvReply(R)) {
      Broken = true;
      break;
    }
    handle(R, Clock::now(), S);
  }
  if (Broken) {
    Dead = true;
    for (size_t I = 0; I != Out.size(); ++I)
      fail(S);
    Out.clear();
    Order.clear();
    return;
  }
  expire(Clock::now(), S);
}

void LoadConn::drain(Clock::time_point Deadline, PhaseStats &S) {
  while (!Out.empty() && Clock::now() < Deadline)
    receive(Deadline, S);
  for (size_t I = 0; I != Out.size(); ++I)
    fail(S);
  Out.clear();
  Order.clear();
}

void LoadConn::closedLoop(unsigned Window, PhaseStats &S) {
  while (!Dead && Clock::now() < S.End) {
    while (!Dead && Out.size() < Window)
      send(Gen.next(), Clock::now(), S);
    receive(S.End, S);
  }
  drain(S.End + DrainTime, S);
}

void LoadConn::openLoop(double Rate, uint64_t ArrivalSeed,
                        Clock::time_point Start, PhaseStats &S) {
  Rng Arrivals(ArrivalSeed);
  auto Gap = [&] { return seconds(-std::log1p(-Arrivals.unit()) / Rate); };
  Clock::time_point Next = Start + Gap();
  while (!Dead && Next < S.End) {
    if (Next <= Clock::now()) {
      send(Gen.next(), Next, S);
      Next += Gap();
      continue;
    }
    receive(Next, S);
  }
  drain(S.End + DrainTime, S);
}

void LoadConn::sendOne(BenchOp Op, PhaseStats &S) {
  send(std::move(Op), Clock::now(), S);
  drain(Clock::now() + seconds(Timeout) + std::chrono::seconds(1), S);
}

} // namespace relbench
