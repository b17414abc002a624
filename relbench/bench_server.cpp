//===- relbench/bench_server.cpp - relserved, end to end ------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// One relbench run: a RelServer hosted in-process on loopback with a
// fresh WAL, driven by this process over two RelClient connections (one
// load thread each), on one named workload.
//
//   bench_server --workload W --seed S [--seconds T] [--json F]
//                [--trace-out F] [--tmp DIR] [--rev R] [--quick]
//   bench_server --oversized-reply [--seed S] [--tmp DIR]
//
// Untraced run (the end-to-end metrics):
//   1. set-up, repeated on fresh servers (the median is setup_s):
//      construct the server (16 shards, group cap 64, WAL on), start()
//      it, and seed it over the wire with pipelined Transact batches of
//      at most 10,000 inserts, until the last batch is acked;
//   2. on the first server: 1 s warm-up, then the open loop, Poisson
//      arrivals at the workload's rate for T seconds, latency from each
//      request's scheduled send, then a drain of at most 5 s;
//   3. verify: peak RSS, the served relation against the model, stop(),
//      and a recovery on the same WAL that must give the relation back.
//
// Traced run (--trace-out, the per-layer metrics): the same set-ups; on
// the first server an untraced and a traced open loop of T/3 each and
// blocking pings; on the last set-up server a closed loop of T/3; timed
// recoveries; a timed checkpoint of a server holding the first 20,000
// rows; then the ladder (Ladder.h) over the first 50,000 requests of the
// same seeded streams. Spans are written to the --trace-out file as
// Chrome trace-event JSON.
//
// The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 0 only when every correctness check passed.
// --quick divides the data by ten and runs 1 s phases (the smoke
// tests); --oversized-reply checks that a reply above wire::MaxBody is
// recorded as failed within its deadline.
//
//===----------------------------------------------------------------------===//

#include "Ladder.h"
#include "LoadGen.h"
#include "Report.h"
#include "Workload.h"

#include "server/Server.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <poll.h>
#include <thread>
#include <unistd.h>

using namespace relc;
using namespace relbench;

namespace {

constexpr unsigned Shards = 16;
constexpr size_t MaxGroup = 64;
constexpr size_t SeedBatch = 10000;
/// Requests each connection keeps outstanding in the closed loop: deep
/// enough that Nagle stalls (see LoadGen.h) do not set the rate.
constexpr unsigned Window = 256;
constexpr int ServerTid = 98;
constexpr size_t MinSamples = 1000;
constexpr size_t LadderOps = 50000;
constexpr size_t CheckpointRows = 20000;
/// Set-up and recovery repeat until they have taken this long (at
/// least three times, at most MaxReps), so short ones are timed often
/// enough for a steady median.
constexpr double MinRepeatSeconds = 1.5;
constexpr unsigned MaxReps = 25;
constexpr const char *FlushPolicy =
    "fsync per commit group, WAL on the temp dir's filesystem; latency is "
    "this sandbox's, not a device's";

struct Options {
  std::string Workload = "transfer";
  uint64_t Seed = 1;
  double Seconds = 18;
  bool Quick = false;
  bool Oversized = false;
  std::string TraceOut, JsonOut, Rev;
  std::string Tmp = ".";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--quick") {
      O.Quick = true;
    } else if (A == "--oversized-reply") {
      O.Oversized = true;
    } else if (A == "--workload" && (V = Value())) {
      O.Workload = V;
    } else if (A == "--seed" && (V = Value())) {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = Value())) {
      O.Seconds = std::atof(V);
    } else if (A == "--trace-out" && (V = Value())) {
      O.TraceOut = V;
    } else if (A == "--json" && (V = Value())) {
      O.JsonOut = V;
    } else if (A == "--tmp" && (V = Value())) {
      O.Tmp = V;
    } else if (A == "--rev" && (V = Value())) {
      O.Rev = V;
    } else {
      std::fprintf(stderr, "bench_server: bad argument '%s'\n", A.c_str());
      return false;
    }
  }
  return O.Seconds > 0;
}

/// A fresh directory under the run's temp base, removed with its files.
class TempDir {
public:
  explicit TempDir(const std::string &Base) {
    std::string Tmpl = Base + "/relbench-XXXXXX";
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    if (::mkdtemp(Buf.data()))
      Path = Buf.data();
  }
  ~TempDir() {
    std::error_code Ec;
    if (!Path.empty())
      std::filesystem::remove_all(Path, Ec);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  std::string Path;
};

double median(std::vector<double> V) { return percentile(V, 50); }

/// Whether a repeated timing needs another repetition: at least \p Min,
/// then more until they have taken MinRepeatSeconds (at most MaxReps).
bool repeatAgain(size_t Done, double Seconds, unsigned Min) {
  return Done < Min || (Seconds < MinRepeatSeconds && Done < MaxReps);
}

ServerOptions serverOptions(const Workload &W, const std::string &WalPath) {
  ServerOptions O;
  O.WalPath = WalPath;
  O.Concurrent.NumShards = Shards;
  O.Concurrent.ShardColumn = W.OwnerCol;
  O.MaxGroup = MaxGroup;
  O.CheckpointEvery = W.CheckpointEvery;
  return O;
}

bool readable(int Fd, int TimeoutMs) {
  pollfd P{Fd, POLLIN, 0};
  return ::poll(&P, 1, TimeoutMs) == 1;
}

/// Loads the first \p Rows initial rows through the wire: pipelined
/// Transact batches, then every ack.
bool seedOverWire(const Workload &W, size_t Rows, uint16_t Port,
                  std::string *Err) {
  RelClient C;
  if (!C.connect(Port, Err))
    return false;
  ColumnSet All = W.Spec->columns();
  uint64_t Batches = 0;
  for (size_t I = 0; I < Rows; I += SeedBatch) {
    BenchOp Op;
    Op.Kind = wire::Op::Transact;
    for (size_t J = I; J != std::min(Rows, I + SeedBatch); ++J)
      Op.Tx.push_back(wire::WireTxOp::insert(W.initialRow(J)));
    std::vector<uint8_t> Body = encodeRequest(Op, ++Batches, All);
    if (Body.size() > wire::MaxBody) {
      *Err = "seed frame of " + std::to_string(Body.size()) +
             " bytes exceeds wire::MaxBody";
      return false;
    }
    if (!C.sendRaw(Body)) {
      *Err = "seed send failed";
      return false;
    }
  }
  for (uint64_t B = 0; B != Batches; ++B) {
    RelClient::Reply R;
    if (!readable(C.fd(), 60000) || !C.recvReply(R) || !R.ok()) {
      *Err = "seed batch not acked";
      return false;
    }
  }
  return true;
}

std::unique_ptr<RelServer> setup(const Workload &W, size_t Rows,
                                 const std::string &WalPath,
                                 std::string *Err) {
  auto S = std::make_unique<RelServer>(W.decomp(), serverOptions(W, WalPath));
  if (!S->start(Err) || !seedOverWire(W, Rows, S->port(), Err))
    return nullptr;
  return S;
}

Fingerprint servedFingerprint(const Workload &W, const ConcurrentRelation &R) {
  Fingerprint F;
  unsigned Arity = W.Spec->arity();
  std::vector<Value> Vals(Arity);
  R.snapshot().scanFrames(Tuple(), W.Spec->columns(),
                          [&](const BindingFrame &Fr) {
                            for (unsigned C = 0; C != Arity; ++C)
                              Vals[C] = Fr.get(C);
                            F.add(Vals.data(), Arity, W.ConservedCol);
                            return true;
                          });
  return F;
}

/// The load side of a run: both streams and their connections.
struct Load {
  const Workload &W;
  uint64_t Seed;
  std::vector<std::unique_ptr<OpStream>> Streams;
  std::vector<std::unique_ptr<LoadConn>> Conns;

  Load(const Workload &W, uint64_t Seed) : W(W), Seed(Seed) {
    for (unsigned C = 0; C != NumConns; ++C) {
      Streams.push_back(W.stream(C));
      Conns.push_back(std::make_unique<LoadConn>(C, W, *Streams.back()));
    }
  }

  bool connect(uint16_t Port, std::string *Err) {
    for (auto &C : Conns)
      if (!C->connect(Port, Err))
        return false;
    return true;
  }

  /// Runs \p Body on one thread per connection and merges their stats.
  template <typename FnT>
  PhaseStats phase(double Seconds, bool Record, bool Traced, FnT Body) {
    std::vector<PhaseStats> Per(Conns.size());
    Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    for (PhaseStats &S : Per) {
      S.Start = Start;
      S.End = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(Seconds));
      S.Record = Record;
      S.Traced = Traced;
    }
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Conns.size(); ++C)
      Threads.emplace_back([&, C] { Body(*Conns[C], Per[C], C, Start); });
    for (std::thread &T : Threads)
      T.join();
    PhaseStats Total;
    for (const PhaseStats &S : Per)
      Total.merge(S);
    return Total;
  }

  PhaseStats open(double Seconds, uint64_t Tag, bool Record, bool Traced) {
    double Rate = W.OpenRate / NumConns;
    return phase(Seconds, Record, Traced,
                 [&](LoadConn &C, PhaseStats &S, unsigned I,
                     Clock::time_point Start) {
                   C.openLoop(Rate, hashMix64(Seed ^ (Tag << 8) ^ I), Start,
                              S);
                 });
  }

  PhaseStats closed(double Seconds) {
    return phase(Seconds, false, false,
                 [](LoadConn &C, PhaseStats &S, unsigned, Clock::time_point) {
                   C.closedLoop(Window, S);
                 });
  }

  Fingerprint model() const {
    std::vector<const OpStream *> S;
    for (const auto &Str : Streams)
      S.push_back(Str.get());
    return W.modelFingerprint(S);
  }

  uint64_t attempted() const {
    uint64_t N = 0;
    for (const auto &C : Conns)
      N += C->attempted();
    return N;
  }
  uint64_t failed() const {
    uint64_t N = 0;
    for (const auto &C : Conns)
      N += C->failed();
    return N;
  }
};

/// The served relation equals the model (and conserves what the
/// workload conserves).
bool relationMatches(const Workload &W, const Fingerprint &Served,
                     const Fingerprint &Model, const char *When) {
  bool Ok = Served == Model;
  if (W.ConservedCol >= 0)
    Ok &= Served.Rows == W.InitialRows &&
          Served.Conserved == W.ConservedTotal;
  if (!Ok)
    std::fprintf(stderr,
                 "bench_server: %s: served relation (%llu rows, total %lld) "
                 "differs from the model (%llu rows, total %lld)\n",
                 When, static_cast<unsigned long long>(Served.Rows),
                 static_cast<long long>(Served.Conserved),
                 static_cast<unsigned long long>(Model.Rows),
                 static_cast<long long>(Model.Conserved));
  return Ok;
}

/// Every slice of the open phase has at least MinSamples of each class,
/// so each slice's p99 has ten samples beyond it.
bool enoughSamples(const PhaseStats &S, bool Quick) {
  bool Ok = true;
  for (unsigned I = 0; I != LatencySlices; ++I)
    Ok &= S.ReadUs[I].size() >= MinSamples && S.WriteUs[I].size() >= MinSamples;
  if (Quick || Ok)
    return true;
  std::fprintf(stderr,
               "bench_server: an open-phase slice has fewer than %zu read or "
               "write samples (%zu reads, %zu writes in all)\n",
               MinSamples, S.reads(), S.writes());
  return false;
}

/// Percentile \p P of each slice, then the median over the slices: a
/// stall that hits one slice moves one of the values, not the result.
double sliceMedian(std::vector<double> (&Slices)[LatencySlices], double P) {
  std::vector<double> PerSlice;
  for (std::vector<double> &V : Slices)
    if (!V.empty())
      PerSlice.push_back(percentile(V, P));
  return median(PerSlice);
}

void addMeta(Report &Rep, const Options &O, const std::string &WalDir) {
  const char *Rev = O.Rev.empty() ? std::getenv("GITHUB_SHA") : O.Rev.c_str();
  Rep.meta("workload", O.Workload);
  Rep.meta("seed", static_cast<double>(O.Seed));
  Rep.meta("seconds", O.Seconds);
  Rep.meta("mode", O.Quick ? "quick" : O.TraceOut.empty() ? "full" : "trace");
  Rep.meta("git_rev", Rev ? Rev : "unknown");
  Rep.meta("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  Rep.meta("build_type", RELBENCH_BUILD_TYPE);
#ifdef NDEBUG
  Rep.meta("assertions", "off");
#else
  Rep.meta("assertions", "on");
#endif
  Rep.meta("l3_bytes", static_cast<double>(::sysconf(_SC_LEVEL3_CACHE_SIZE)));
  Rep.meta("wal_fs", fsType(WalDir));
  Rep.meta("flush_policy", FlushPolicy);
  Rep.meta("connections", NumConns);
  Rep.meta("load_threads", NumConns);
}

int finish(const Options &O, Report &Rep, bool Correct, uint64_t Attempted,
           uint64_t Failed) {
  Rep.print();
  if (!O.JsonOut.empty() && !Rep.write(O.JsonOut, Correct, Attempted, Failed))
    Correct = false;
  std::printf("%s\n", Rep.resultLine(Correct, Attempted, Failed).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

/// Blocking pings on \p C for 3 s or 2,000 pings, whichever ends first.
bool pingRung(RelClient &C, Report &Rep, Trace &T) {
  std::vector<double> Us;
  Clock::time_point Start = Clock::now();
  while (Us.size() != 2000 && secondsBetween(Start, Clock::now()) < 3.0) {
    Clock::time_point T0 = Clock::now();
    if (!C.ping())
      return false;
    Clock::time_point T1 = Clock::now();
    T.span("ping", ServerTid, T0, T1);
    Us.push_back(std::chrono::duration<double, std::micro>(T1 - T0).count());
  }
  Rep.metric("server.ping_us", "us", percentile(Us, 50));
  Rep.count("ping_samples", Us.size());
  return true;
}

/// Times checkpointNow() on a server holding the first CheckpointRows
/// initial rows: checkpoint time grows faster than linearly in the rows
/// a shard holds (see README), so the full relation may not finish.
bool checkpointRung(const Workload &W, const std::string &Dir, Report &Rep,
                    Trace &T) {
  size_t Rows = std::min(W.InitialRows, CheckpointRows);
  std::string Wal = Dir + "/ckpt.wal", Err;
  std::unique_ptr<RelServer> Server = setup(W, Rows, Wal, &Err);
  Clock::time_point T0 = Clock::now();
  bool Ok = Server && Server->checkpointNow(&Err);
  Clock::time_point T1 = Clock::now();
  Server.reset();
  if (!Ok) {
    std::fprintf(stderr, "bench_server: checkpoint: %s\n", Err.c_str());
    return false;
  }
  T.span("checkpoint", ServerTid, T0, T1);
  std::error_code Ec;
  double Bytes =
      static_cast<double>(std::filesystem::file_size(Wal + ".ckpt", Ec));
  Rep.metric("server.ckpt_ms", "ms",
             std::chrono::duration<double, std::milli>(T1 - T0).count());
  Rep.metric("server.ckpt_bytes_per_row", "B", Bytes / Rows);
  return true;
}

int run(const Options &O, const Workload &W, Report &Rep) {
  bool Traced = !O.TraceOut.empty();
  TempDir Dir(O.Tmp);
  if (Dir.Path.empty()) {
    std::fprintf(stderr, "bench_server: cannot create a temp dir in %s\n",
                 O.Tmp.c_str());
    return 1;
  }
  addMeta(Rep, O, Dir.Path);
  // The untraced run spends its seconds on the open loop; the traced one
  // splits them between an untraced and a traced open loop and the
  // closed loop.
  double Phase = O.Quick ? 1 : Traced ? O.Seconds / 3 : O.Seconds;
  std::string Err;
  std::string WalPath = Dir.Path + "/open.wal";
  std::vector<double> SetupS;
  PhaseStats Open, TracedOpen, Closed;
  Fingerprint Served;
  ArenaStats Seeded, Loaded;
  double RssMiB = 0;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  Trace T;
  // The first server runs the open loop, on which every end-to-end
  // metric but setup_s is measured. A traced run drives its last server
  // through the closed loop, on fresh streams, after the peak RSS is
  // read. The set-ups between are timed only.
  unsigned MinReps = O.Quick ? 1 : 3;
  double SetupTotal = 0;
  for (unsigned K = 0; repeatAgain(K, SetupTotal, MinReps); ++K) {
    bool First = K == 0;
    std::string Path = First ? WalPath : Dir.Path + "/setup.wal";
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<RelServer> Server = setup(W, W.InitialRows, Path, &Err);
    if (!Server) {
      std::fprintf(stderr, "bench_server: setup: %s\n", Err.c_str());
      return 1;
    }
    SetupS.push_back(secondsBetween(T0, Clock::now()));
    SetupTotal += SetupS.back();
    bool RunClosed = Traced && !repeatAgain(K + 1, SetupTotal, MinReps);
    if (First || RunClosed) {
      Load L(W, O.Seed);
      if (!L.connect(Server->port(), &Err)) {
        std::fprintf(stderr, "bench_server: connect: %s\n", Err.c_str());
        return 1;
      }
      if (First)
        Seeded = Server->relation().arenaStats();
      L.open(1.0, 1, false, false);
      if (First) {
        Open = L.open(Phase, 2, true, false);
        progress("open loop: %zu reads, %zu writes", Open.reads(),
                 Open.writes());
        RssMiB = peakRssMiB();
        if (Traced) {
          TracedOpen = L.open(Phase, 3, true, true);
          Correct &= pingRung(L.Conns[0]->blockingClient(), Rep, T);
        }
        Loaded = Server->relation().arenaStats();
      }
      if (RunClosed) {
        Closed = L.closed(Phase);
        progress("closed loop: %llu completed",
                 static_cast<unsigned long long>(Closed.Completed));
      }
      Fingerprint Now = servedFingerprint(W, Server->relation());
      Correct &= relationMatches(W, Now, L.model(), "after the load");
      if (First) {
        Served = Now;
        // A server that checkpoints gets a last checkpoint, so the log
        // recovery reads does not depend on when the automatic ones ran.
        if (W.CheckpointEvery != 0 && !Server->checkpointNow(&Err)) {
          std::fprintf(stderr, "bench_server: checkpoint: %s\n", Err.c_str());
          Correct = false;
        }
      }
      Attempted += L.attempted();
      Failed += L.failed();
    }
    Server->stop();
    Server.reset();
    if (!First) {
      std::filesystem::remove(Path);
      std::filesystem::remove(Path + ".ckpt");
    }
  }
  progress("%zu set-ups: median %.3f s", SetupS.size(), median(SetupS));

  // Recovery on the open loop's log must give back the relation before
  // the stop. The traced run also times it: the first recovery faults
  // in the memory the later ones reuse, so it is not timed.
  std::vector<double> RecoveryS;
  double RecoveryTotal = 0;
  for (unsigned K = 0; K == 0 || (Traced && !O.Quick &&
                                  repeatAgain(RecoveryS.size(), RecoveryTotal,
                                              MinReps));
       ++K) {
    RelServer Recovered(W.decomp(), serverOptions(W, WalPath));
    Clock::time_point T0 = Clock::now();
    bool Started = Recovered.start(&Err);
    if (K != 0) {
      RecoveryS.push_back(secondsBetween(T0, Clock::now()));
      RecoveryTotal += RecoveryS.back();
    }
    if (!Started) {
      std::fprintf(stderr, "bench_server: recovery: %s\n", Err.c_str());
      Correct = false;
      break;
    }
    Correct &= relationMatches(
        W, servedFingerprint(W, Recovered.relation()), Served, "recovered");
    Recovered.stop();
  }

  if (!Traced) {
    Correct &= enoughSamples(Open, O.Quick);
    Rep.metric("setup_s", "s", median(SetupS));
    Rep.metric("read_p50_us", "us", sliceMedian(Open.ReadUs, 50));
    Rep.metric("read_p99_us", "us", sliceMedian(Open.ReadUs, 99));
    Rep.metric("write_p50_us", "us", sliceMedian(Open.WriteUs, 50));
    Rep.metric("write_p99_us", "us", sliceMedian(Open.WriteUs, 99));
    Rep.metric("peak_rss_mb", "MiB", RssMiB);
    Rep.count("setup_reps", SetupS.size());
    Rep.count("read_samples", Open.reads());
    Rep.count("write_samples", Open.writes());
    Rep.count("open_aborted", Open.Aborted);
    return finish(O, Rep, Correct && Failed == 0, Attempted, Failed);
  }

  for (const RequestSpan &S : TracedOpen.Spans) {
    int Tid = static_cast<int>(S.Id >> 40) + 1;
    T.request(S.Read ? "read" : "write", S.Id, Tid, S.Sched, S.Replied);
    T.request("queued", S.Id, Tid, S.Sched, S.Sent);
    T.request("wire", S.Id, Tid, S.Sent, S.Replied);
  }
  Correct &= checkpointRung(W, Dir.Path, Rep, T);
  // The ladder replays the head of the same seeded streams, alternating
  // connections, from the initial rows.
  std::vector<std::unique_ptr<OpStream>> Fresh;
  for (unsigned C = 0; C != NumConns; ++C)
    Fresh.push_back(W.stream(C));
  std::vector<BenchOp> Ops;
  for (size_t I = 0; I != (O.Quick ? LadderOps / 10 : LadderOps); ++I)
    Ops.push_back(Fresh[I % NumConns]->next());
  if (!runLadder(W, Ops, Dir.Path, Rep, T, &Err)) {
    std::fprintf(stderr, "bench_server: ladder: %s\n", Err.c_str());
    Correct = false;
  }

  double Rows = static_cast<double>(W.InitialRows);
  Rep.metric("server.closed_ops", "ops/s", Closed.Completed / Phase);
  Rep.metric("server.recovery_ms", "ms", median(RecoveryS) * 1e3);
  Rep.metric("arena.bytes_per_row", "B", Seeded.Bytes / Rows);
  Rep.metric("arena.live_blocks_per_row", "count", Seeded.Live / Rows);
  Rep.metric("arena.growth_frac", "ratio",
             static_cast<double>(Loaded.Bytes) / Seeded.Bytes - 1);
  Rep.metric("loadgen.late_p99_us", "us", percentile(Open.LateUs, 99));
  Rep.metric("loadgen.read_samples", "count", Open.reads());
  Rep.metric("loadgen.write_samples", "count", Open.writes());
  Rep.metric("loadgen.abort_frac", "ratio",
             Open.Aborted / std::max<double>(Open.writes(), 1));
  Rep.metric("trace.overhead_frac", "ratio",
             sliceMedian(TracedOpen.ReadUs, 50) / sliceMedian(Open.ReadUs, 50) -
                 1);
  Rep.count("recovery_reps", RecoveryS.size());
  if (!T.write(O.TraceOut))
    Correct = false;
  return finish(O, Rep, Correct && Failed == 0, Attempted, Failed);
}

/// A full-relation Query on seeded transfer data answers with more than
/// wire::MaxBody bytes, which RelServer::reply cannot frame and drops.
/// The harness must count the request as failed once its deadline
/// passes, not block, and the connection must stay usable.
int runOversized(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload("transfer", O.Seed, false);
  TempDir Dir(O.Tmp);
  std::string Err;
  std::unique_ptr<RelServer> Server =
      setup(*W, W->InitialRows, Dir.Path + "/server.wal", &Err);
  if (!Server) {
    std::fprintf(stderr, "bench_server: setup: %s\n", Err.c_str());
    return 1;
  }
  wire::ByteWriter Row;
  Row.tuple(W->initialRow(0));
  // Status byte, request id and row count, then every row.
  size_t ReplyBytes = 1 + 8 + 4 + W->InitialRows * Row.size();
  Load L(*W, O.Seed);
  if (!L.connect(Server->port(), &Err)) {
    std::fprintf(stderr, "bench_server: connect: %s\n", Err.c_str());
    return 1;
  }
  LoadConn &C = *L.Conns[0];
  C.Timeout = 2.0;
  PhaseStats S;
  S.End = Clock::time_point::max();
  BenchOp All; // an empty pattern: every row
  Clock::time_point T0 = Clock::now();
  C.sendOne(All, S);
  double Waited = secondsBetween(T0, Clock::now());
  BenchOp Point = L.Streams[0]->next();
  while (!Point.isRead())
    Point = L.Streams[0]->next();
  PhaseStats After;
  After.End = Clock::time_point::max();
  C.sendOne(Point, After);
  std::printf("oversized reply: %zu bytes (MaxBody %u): failed %llu after "
              "%.3f s; next read failed %llu\n",
              ReplyBytes, wire::MaxBody,
              static_cast<unsigned long long>(S.Failed), Waited,
              static_cast<unsigned long long>(After.Failed));
  bool Ok = ReplyBytes > wire::MaxBody && S.Failed == 1 &&
            Waited < C.Timeout + 1.5 && After.Failed == 0;
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (O.Oversized)
    return runOversized(O);
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed, O.Quick);
  if (!W) {
    std::fprintf(stderr, "bench_server: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  std::printf("relbench %s seed %llu%s%s\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Quick ? " quick" : "",
              O.TraceOut.empty() ? "" : " traced");
  Report Rep;
  return run(O, *W, Rep);
}
