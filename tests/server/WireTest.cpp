//===- tests/server/WireTest.cpp - Wire protocol tests --------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The wire layer, attacked from both sides: property-style round-trips
// of every value/tuple/op encoding through ByteWriter/ByteReader, the
// decoder fed every truncation of valid bytes (it must fail cleanly,
// never crash), a MaxBody frame cut into short writes that must arrive
// whole, and a live RelServer fed malformed frames — oversized
// length prefixes, truncated bodies, unknown opcodes, zero-length
// batches, garbage payloads — which must produce a clean error reply
// or a clean close, never a crash or a hang, and must leave well-
// formed traffic on the same connection working.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"

#include "decomp/Builder.h"
#include "workloads/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <pthread.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace relc;

namespace {

RelSpecRef accountSpec() {
  return RelSpec::make("account", {"owner", "acct", "balance"},
                       {{"owner, acct", "balance"}});
}

Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

//===----------------------------------------------------------------------===//
// Codec round-trips
//===----------------------------------------------------------------------===//

TEST(WireCodec, ScalarRoundTrip) {
  wire::ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEF);
  W.u64(0x0123456789ABCDEFull);
  W.i64(-42);
  W.str("hello");
  wire::ByteReader R(W.data());
  uint8_t A;
  uint32_t B;
  uint64_t C;
  int64_t D;
  std::string S;
  ASSERT_TRUE(R.u8(A));
  ASSERT_TRUE(R.u32(B));
  ASSERT_TRUE(R.u64(C));
  ASSERT_TRUE(R.i64(D));
  ASSERT_TRUE(R.str(S));
  EXPECT_EQ(A, 0xAB);
  EXPECT_EQ(B, 0xDEADBEEFu);
  EXPECT_EQ(C, 0x0123456789ABCDEFull);
  EXPECT_EQ(D, -42);
  EXPECT_EQ(S, "hello");
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(WireCodec, ValueAndTupleRoundTrip) {
  Rng Rand(7);
  for (int Iter = 0; Iter != 200; ++Iter) {
    Tuple T;
    for (ColumnId C = 0; C != 6; ++C) {
      switch (Rand.below(3)) {
      case 0:
        T.set(C, Value::ofInt(static_cast<int64_t>(Rand.next())));
        break;
      case 1:
        T.set(C, Value::ofString("s" + std::to_string(Rand.below(50))));
        break;
      default:
        break; // leave unbound: partial tuples must round-trip too
      }
    }
    wire::ByteWriter W;
    W.tuple(T);
    wire::ByteReader R(W.data());
    Tuple Back;
    ASSERT_TRUE(R.tuple(Back, 6));
    EXPECT_EQ(T, Back);
    EXPECT_EQ(R.remaining(), 0u);
  }
}

TEST(WireCodec, TxOpRoundTripAllKinds) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  Tuple Key = TupleBuilder(Cat).set("owner", 3).set("acct", 1).build();
  Tuple Full =
      TupleBuilder(Cat).set("owner", 3).set("acct", 1).set("balance", 9).build();
  Tuple Changes = TupleBuilder(Cat).set("balance", -5).build();

  std::vector<wire::WireTxOp> Ops = {
      wire::WireTxOp::insert(Full),
      wire::WireTxOp::remove(Key),
      wire::WireTxOp::update(Key, Changes),
      wire::WireTxOp::add(Key, Cat.get("balance"), -17, 0),
      wire::WireTxOp::add(Key, Cat.get("balance"), 4),
  };
  wire::ByteWriter W;
  for (const wire::WireTxOp &Op : Ops)
    W.txOp(Op);
  wire::ByteReader R(W.data());
  for (const wire::WireTxOp &Op : Ops) {
    wire::WireTxOp Back;
    ASSERT_TRUE(R.txOp(Back, Cat.size()));
    EXPECT_EQ(Op, Back);
  }
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(WireCodec, RedoRoundTrip) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::vector<TxOp> Redo;
  Redo.push_back(TxOp::insert(TupleBuilder(Cat)
                                  .set("owner", 1)
                                  .set("acct", 2)
                                  .set("balance", 3)
                                  .build()));
  Redo.push_back(TxOp::remove(TupleBuilder(Cat).set("owner", 1).build()));
  Redo.push_back(
      TxOp::update(TupleBuilder(Cat).set("owner", 1).set("acct", 2).build(),
                   TupleBuilder(Cat).set("balance", 44).build()));
  std::vector<uint8_t> Bytes = wire::encodeRedo(Redo);
  std::vector<TxOp> Back;
  ASSERT_TRUE(wire::decodeRedo(Bytes.data(), Bytes.size(), Cat.size(), Back));
  ASSERT_EQ(Back.size(), Redo.size());
  for (size_t I = 0; I != Redo.size(); ++I) {
    EXPECT_EQ(Back[I].Op, Redo[I].Op);
    EXPECT_EQ(Back[I].A, Redo[I].A);
    EXPECT_EQ(Back[I].B, Redo[I].B);
  }
}

/// Every strict prefix of valid bytes must decode to a clean failure —
/// no crash, no OOB read, no partial output accepted as whole.
TEST(WireCodec, TruncationsFailCleanly) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  wire::ByteWriter W;
  W.txOp(wire::WireTxOp::add(
      TupleBuilder(Cat).set("owner", 7).set("acct", 2).build(),
      Cat.get("balance"), -3, 0));
  W.tuple(
      TupleBuilder(Cat).set("owner", 1).set("balance", 2).build());
  const std::vector<uint8_t> &Bytes = W.data();
  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut) {
    wire::ByteReader R(Bytes.data(), Cut);
    wire::WireTxOp Op;
    Tuple T;
    // Either the op is cut (fails) or it is whole and the tuple is cut.
    if (R.txOp(Op, Cat.size()))
      EXPECT_FALSE(R.tuple(T, Cat.size())) << "cut at " << Cut;
  }
}

TEST(WireCodec, ReaderRejectsJunk) {
  // Unknown value kind byte.
  std::vector<uint8_t> Junk = {0x01, 0, 0, 0, 0, 0, 0, 0, 2};
  {
    wire::ByteReader R(Junk);
    Tuple T;
    EXPECT_FALSE(R.tuple(T));
  }
  // Column mask past the declared arity.
  wire::ByteWriter W;
  Tuple Wide;
  Wide.set(5, Value::ofInt(1));
  W.tuple(Wide);
  {
    wire::ByteReader R(W.data());
    Tuple T;
    EXPECT_FALSE(R.tuple(T, 3));
  }
  // Unknown tx-op kind.
  std::vector<uint8_t> BadOp = {9};
  {
    wire::ByteReader R(BadOp);
    wire::WireTxOp Op;
    EXPECT_FALSE(R.txOp(Op));
  }
}

//===----------------------------------------------------------------------===//
// Frames over a raw socket
//===----------------------------------------------------------------------===//

void ignoreSignal(int) {}

/// writeFrame sends prefix and body with one sendmsg, so a short write
/// can stop inside either part. A small send buffer makes the writer
/// block over and over on a MaxBody frame, and signals (no SA_RESTART)
/// cut those blocked calls short: with bytes already queued, sendmsg
/// returns a partial count; with none, EINTR. Both frames must still
/// arrive whole and in order.
TEST(WireFrame, ShortWritesAcrossPrefixAndBodyArriveIntact) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  int Small = 4096;
  ASSERT_EQ(::setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &Small,
                         sizeof(Small)),
            0);
  struct sigaction Action{}, Old{};
  Action.sa_handler = ignoreSignal;
  sigemptyset(&Action.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &Action, &Old), 0);

  std::vector<uint8_t> Big(wire::MaxBody);
  for (size_t I = 0; I != Big.size(); ++I)
    Big[I] = static_cast<uint8_t>(I * 131 + (I >> 11));
  std::atomic<bool> Written{false};
  bool WroteBig = false, WroteEmpty = false;
  std::thread Writer([&] {
    WroteBig = wire::writeFrame(Fds[0], Big);
    WroteEmpty = wire::writeFrame(Fds[0], nullptr, 0);
    Written.store(true);
  });
  std::vector<uint8_t> Got, Empty{1, 2, 3};
  bool ReadBig = false, ReadEmpty = false;
  std::thread Reader([&] {
    ReadBig = wire::readFrame(Fds[1], Got);
    ReadEmpty = wire::readFrame(Fds[1], Empty);
  });
  // The writer's handle stays valid until the join below.
  while (!Written.load()) {
    ::pthread_kill(Writer.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Writer.join();
  Reader.join();
  ::sigaction(SIGUSR1, &Old, nullptr);
  ::close(Fds[0]);
  ::close(Fds[1]);

  EXPECT_TRUE(WroteBig);
  EXPECT_TRUE(WroteEmpty);
  ASSERT_TRUE(ReadBig);
  EXPECT_TRUE(Got == Big);
  EXPECT_TRUE(ReadEmpty);
  EXPECT_TRUE(Empty.empty());
}

//===----------------------------------------------------------------------===//
// Live-server protocol tests
//===----------------------------------------------------------------------===//

class WireServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    RelSpecRef Spec = accountSpec();
    Cat = &Spec->catalog();
    ServerOptions Opts; // volatile: no WAL needed for protocol tests
    Opts.Concurrent.NumShards = 4;
    Server = std::make_unique<RelServer>(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server->start(&Err)) << Err;
  }

  Tuple account(int64_t Owner, int64_t Acct, int64_t Balance) {
    return TupleBuilder(*Cat)
        .set("owner", Owner)
        .set("acct", Acct)
        .set("balance", Balance)
        .build();
  }
  Tuple key(int64_t Owner, int64_t Acct) {
    return TupleBuilder(*Cat).set("owner", Owner).set("acct", Acct).build();
  }

  const Catalog *Cat = nullptr;
  std::unique_ptr<RelServer> Server;
};

TEST_F(WireServerTest, BasicOpsRoundTrip) {
  RelClient Cli;
  std::string Err;
  ASSERT_TRUE(Cli.connect(Server->port(), &Err)) << Err;
  EXPECT_TRUE(Cli.ping());

  RelClient::Reply R;
  ASSERT_TRUE(Cli.insert(account(1, 1, 100), &R));
  EXPECT_TRUE(R.ok());
  EXPECT_GT(R.Ticket, 0u);
  ASSERT_TRUE(Cli.insert(account(1, 2, 50), &R));
  EXPECT_TRUE(R.ok());

  uint64_t N = 0;
  ASSERT_TRUE(Cli.size(N));
  EXPECT_EQ(N, 2u);

  std::vector<Tuple> Rows;
  ASSERT_TRUE(Cli.query(TupleBuilder(*Cat).set("owner", 1).build(),
                        Cat->allColumns(), Rows));
  EXPECT_EQ(Rows.size(), 2u);

  ASSERT_TRUE(Cli.update(key(1, 2),
                         TupleBuilder(*Cat).set("balance", 75).build(), &R));
  EXPECT_TRUE(R.ok());
  Rows.clear();
  ASSERT_TRUE(Cli.query(key(1, 2), Cat->allColumns(), Rows));
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].get(Cat->get("balance")).asInt(), 75);

  ASSERT_TRUE(Cli.remove(key(1, 1), &R));
  EXPECT_TRUE(R.ok());
  ASSERT_TRUE(Cli.size(N));
  EXPECT_EQ(N, 1u);
}

TEST_F(WireServerTest, StatsReportsCommitsAndArenaOccupancy) {
  RelClient Cli;
  std::string Err;
  ASSERT_TRUE(Cli.connect(Server->port(), &Err)) << Err;

  RelClient::ServerStats Empty;
  ASSERT_TRUE(Cli.stats(Empty));
  // Every shard arena holds at least its root node before any insert.
  EXPECT_GT(Empty.ArenaLive, 0u);
  EXPECT_GT(Empty.ArenaBytes, 0u);

  RelClient::Reply R;
  const int Rows = 64;
  for (int I = 0; I != Rows; ++I) {
    ASSERT_TRUE(Cli.insert(account(I % 8, I, 10 + I), &R));
    ASSERT_TRUE(R.ok());
  }

  RelClient::ServerStats Loaded;
  ASSERT_TRUE(Cli.stats(Loaded));
  EXPECT_GE(Loaded.Committed, uint64_t(Rows));
  EXPECT_GT(Loaded.Groups, 0u);
  // The inserted rows live in the shard arenas: at least one block
  // (the unit node) per row beyond the empty-relation baseline.
  EXPECT_GE(Loaded.ArenaLive, Empty.ArenaLive + Rows);
  EXPECT_GE(Loaded.ArenaBytes, Empty.ArenaBytes);
}

TEST_F(WireServerTest, TransferAndOverdraftAbort) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  RelClient::Reply R;
  ASSERT_TRUE(Cli.insert(account(1, 1, 100), &R));
  ASSERT_TRUE(Cli.insert(account(2, 1, 100), &R));
  ColumnId Bal = Cat->get("balance");

  // A legal transfer commits and moves the money.
  std::vector<wire::WireTxOp> Ops = {
      wire::WireTxOp::add(key(1, 1), Bal, -30, 0),
      wire::WireTxOp::add(key(2, 1), Bal, 30),
  };
  ASSERT_TRUE(Cli.transact(Ops, &R));
  EXPECT_TRUE(R.ok());

  // Overdraft: the floor guard aborts the whole batch atomically.
  Ops = {wire::WireTxOp::add(key(1, 1), Bal, -1000, 0),
         wire::WireTxOp::add(key(2, 1), Bal, 1000)};
  ASSERT_TRUE(Cli.transact(Ops, &R));
  EXPECT_TRUE(R.aborted());
  EXPECT_EQ(R.FailedOp, 0u);

  // Absent key: aborts at the second op, first rolled back.
  Ops = {wire::WireTxOp::add(key(1, 1), Bal, -10, 0),
         wire::WireTxOp::add(key(9, 9), Bal, 10)};
  ASSERT_TRUE(Cli.transact(Ops, &R));
  EXPECT_TRUE(R.aborted());
  EXPECT_EQ(R.FailedOp, 1u);

  std::vector<Tuple> Rows;
  ASSERT_TRUE(Cli.query(Tuple(), Cat->allColumns(), Rows));
  int64_t Total = 0;
  for (const Tuple &T : Rows)
    Total += T.get(Bal).asInt();
  EXPECT_EQ(Total, 200);
}

TEST_F(WireServerTest, PipelinedTransactsAllAnswered) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  RelClient::Reply R;
  ASSERT_TRUE(Cli.insert(account(1, 1, 1000), &R));
  ASSERT_TRUE(Cli.insert(account(2, 1, 1000), &R));
  ColumnId Bal = Cat->get("balance");

  std::vector<uint64_t> Ids;
  for (int I = 0; I != 32; ++I) {
    std::vector<wire::WireTxOp> Ops = {
        wire::WireTxOp::add(key(1, 1), Bal, -1, 0),
        wire::WireTxOp::add(key(2, 1), Bal, 1)};
    uint64_t Id = Cli.sendTransact(Ops);
    ASSERT_NE(Id, 0u);
    Ids.push_back(Id);
  }
  std::set<uint64_t> Seen;
  for (size_t I = 0; I != Ids.size(); ++I) {
    ASSERT_TRUE(Cli.recvReply(R));
    EXPECT_TRUE(R.ok());
    Seen.insert(R.ReqId);
  }
  EXPECT_EQ(Seen.size(), Ids.size());
  for (uint64_t Id : Ids)
    EXPECT_TRUE(Seen.count(Id));
}

/// Blocking round trips cost what the server does. A reply body that
/// waits for the client's delayed ACK of its length prefix (Nagle's
/// algorithm) costs ~44 ms a round trip, which would make these 200
/// take at least 8.8 s.
TEST_F(WireServerTest, BlockingRoundTripsAreNotHeldForAcks) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  RelClient::Reply R;
  ASSERT_TRUE(Cli.insert(account(1, 1, 1000), &R));
  ASSERT_TRUE(Cli.insert(account(2, 1, 1000), &R));
  ColumnId Bal = Cat->get("balance");

  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != 200; ++I) {
    if (I % 3 == 0) {
      ASSERT_TRUE(Cli.ping());
    } else if (I % 3 == 1) {
      std::vector<Tuple> Rows;
      ASSERT_TRUE(Cli.query(key(1, 1), Cat->allColumns(), Rows));
      ASSERT_EQ(Rows.size(), 1u);
    } else {
      ASSERT_TRUE(Cli.transact({wire::WireTxOp::add(key(1, 1), Bal, -1, 0),
                                wire::WireTxOp::add(key(2, 1), Bal, 1)},
                               &R));
      ASSERT_TRUE(R.ok());
    }
  }
  std::chrono::duration<double> Took = std::chrono::steady_clock::now() - T0;
  EXPECT_LT(Took.count(), 2.0) << "200 blocking round trips";
}

/// A reply the frame cannot hold (above wire::MaxBody) is answered with
/// an Error rather than dropped, and the connection keeps serving.
TEST_F(WireServerTest, OversizedReplyGetsErrorReply) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  // A row encodes to 35 bytes (mask and three ints), so 32,000 rows
  // make a full-relation answer of 1.12 MB.
  const int Batches = 32, PerBatch = 1000;
  for (int B = 0; B != Batches; ++B) {
    std::vector<wire::WireTxOp> Ops;
    for (int I = 0; I != PerBatch; ++I)
      Ops.push_back(wire::WireTxOp::insert(account(B, I, 1)));
    ASSERT_NE(Cli.sendTransact(Ops), 0u);
  }
  RelClient::Reply R;
  for (int B = 0; B != Batches; ++B) {
    ASSERT_TRUE(Cli.recvReply(R));
    ASSERT_TRUE(R.ok());
  }

  // A dropped reply would block the read for good: bound it.
  timeval Limit{10, 0};
  ASSERT_EQ(::setsockopt(Cli.fd(), SOL_SOCKET, SO_RCVTIMEO, &Limit,
                         sizeof(Limit)),
            0);
  wire::ByteWriter W;
  W.u8(static_cast<uint8_t>(wire::Op::Query));
  W.u64(77);
  W.tuple(Tuple());
  W.u64(Cat->allColumns().mask());
  ASSERT_TRUE(Cli.sendRaw(W.data()));
  ASSERT_TRUE(Cli.recvReply(R)) << "no reply within 10 s";
  EXPECT_EQ(R.St, wire::Status::Error);
  EXPECT_EQ(R.ReqId, 77u);
  EXPECT_EQ(R.Error, "reply exceeds wire::MaxBody");

  std::vector<Tuple> Rows;
  ASSERT_TRUE(Cli.query(key(3, 3), Cat->allColumns(), Rows));
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].get(Cat->get("balance")).asInt(), 1);
}

TEST_F(WireServerTest, OversizedLengthPrefixClosesConnection) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  uint32_t Huge = wire::MaxBody + 1;
  uint8_t Prefix[4];
  for (int I = 0; I != 4; ++I)
    Prefix[I] = static_cast<uint8_t>(Huge >> (8 * I));
  ASSERT_TRUE(wire::writeFull(Cli.fd(), Prefix, 4));
  std::vector<uint8_t> Body;
  EXPECT_FALSE(Cli.recvRaw(Body)); // server closed, no reply
  // And the server is still alive for fresh connections.
  RelClient Cli2;
  ASSERT_TRUE(Cli2.connect(Server->port()));
  EXPECT_TRUE(Cli2.ping());
}

TEST_F(WireServerTest, TruncatedHeaderClosesConnection) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  // A 3-byte body cannot hold opcode + reqId: close.
  ASSERT_TRUE(Cli.sendRaw({0x01, 0x02, 0x03}));
  std::vector<uint8_t> Body;
  EXPECT_FALSE(Cli.recvRaw(Body));
}

TEST_F(WireServerTest, UnknownOpcodeGetsErrorReply) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  wire::ByteWriter W;
  W.u8(0x7F); // no such opcode
  W.u64(42);
  ASSERT_TRUE(Cli.sendRaw(W.data()));
  RelClient::Reply R;
  ASSERT_TRUE(Cli.recvReply(R));
  EXPECT_EQ(R.St, wire::Status::Error);
  EXPECT_EQ(R.ReqId, 42u);
  EXPECT_TRUE(Cli.ping()); // connection stays usable
}

TEST_F(WireServerTest, ZeroLengthBatchGetsErrorReply) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  RelClient::Reply R;
  ASSERT_TRUE(Cli.transact({}, &R));
  EXPECT_EQ(R.St, wire::Status::Error);
  EXPECT_TRUE(Cli.ping());
}

TEST_F(WireServerTest, MalformedPayloadsGetErrorReplies) {
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server->port()));
  RelClient::Reply R;

  // Insert with a truncated tuple body.
  wire::ByteWriter W;
  W.u8(static_cast<uint8_t>(wire::Op::Insert));
  W.u64(1);
  W.u64(0x7); // mask promises three values; none follow
  ASSERT_TRUE(Cli.sendRaw(W.data()));
  ASSERT_TRUE(Cli.recvReply(R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // Insert binding only part of the relation.
  ASSERT_TRUE(
      Cli.insert(TupleBuilder(*Cat).set("owner", 1).build(), &R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // Update whose pattern is not a key.
  ASSERT_TRUE(Cli.update(TupleBuilder(*Cat).set("owner", 1).build(),
                         TupleBuilder(*Cat).set("balance", 1).build(), &R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // Add on a key column.
  std::vector<wire::WireTxOp> Ops = {
      wire::WireTxOp::add(key(1, 1), Cat->get("owner"), 1)};
  ASSERT_TRUE(Cli.transact(Ops, &R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // Transact with trailing garbage after a valid batch.
  W = wire::ByteWriter();
  W.u8(static_cast<uint8_t>(wire::Op::Transact));
  W.u64(9);
  W.u32(1);
  W.txOp(wire::WireTxOp::remove(key(1, 1)));
  W.u8(0xFF);
  ASSERT_TRUE(Cli.sendRaw(W.data()));
  ASSERT_TRUE(Cli.recvReply(R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // Query for columns outside the relation.
  W = wire::ByteWriter();
  W.u8(static_cast<uint8_t>(wire::Op::Query));
  W.u64(10);
  W.tuple(Tuple());
  W.u64(~0ull);
  ASSERT_TRUE(Cli.sendRaw(W.data()));
  ASSERT_TRUE(Cli.recvReply(R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // Checkpoint on a WAL-less server is a clean error.
  EXPECT_FALSE(Cli.checkpoint(&R));
  EXPECT_EQ(R.St, wire::Status::Error);

  // After all that abuse the connection still works.
  EXPECT_TRUE(Cli.ping());
  uint64_t N;
  EXPECT_TRUE(Cli.size(N));
}

/// The wire mask boundary: a relation at the full 64-column cap (the
/// widest a ColumnSet can address) must answer queries for any output
/// mask — validation runs at EVERY arity now, and the arity-64 path
/// must not shift a u64 by 64 on the way to deciding the mask is
/// fine. Narrower relations keep rejecting mask bits past their arity.
TEST(WireWideRelation, SixtyFourColumnQueriesValidateWithoutOverflow) {
  std::vector<std::string> Names;
  std::string Rest;
  for (int I = 0; I != 64; ++I) {
    Names.push_back("c" + std::to_string(I));
    if (I > 0)
      Rest += (I > 1 ? ", c" : "c") + std::to_string(I);
  }
  RelSpecRef Spec = RelSpec::make("wide", Names, {{"c0", Rest}});
  const Catalog &Cat = Spec->catalog();
  ASSERT_EQ(Cat.size(), 64u);
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "c0", B.unit(Rest));
  B.addNode("x", "", B.map("c0", DsKind::HashTable, U));

  ServerOptions Opts;
  Opts.Concurrent.NumShards = 2;
  RelServer Server(B.build(), Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server.port()));

  TupleBuilder Row(Cat);
  for (int I = 0; I != 64; ++I)
    Row.set("c" + std::to_string(I), 100 + I);
  RelClient::Reply R;
  ASSERT_TRUE(Cli.insert(Row.build(), &R));
  ASSERT_TRUE(R.ok());

  // Full-width output mask: every bit addresses a real column.
  std::vector<Tuple> Rows;
  ASSERT_TRUE(Cli.query(TupleBuilder(Cat).set("c0", 100).build(),
                        ColumnSet::fromMask(~0ull), Rows));
  ASSERT_EQ(Rows.size(), 1u);
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Rows[0].get(Cat.get("c" + std::to_string(I))).asInt(),
              100 + I);

  // The top bit alone — the one a 63-column relation must reject and
  // this one must serve.
  Rows.clear();
  ASSERT_TRUE(Cli.query(TupleBuilder(Cat).set("c0", 100).build(),
                        ColumnSet::single(63), Rows));
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].get(Cat.get("c63")).asInt(), 163);
  Server.stop();
}

/// Random garbage frames (bounded length) must never crash or hang the
/// server: every frame gets an error reply or a close, and a fresh
/// connection always works afterwards.
TEST_F(WireServerTest, GarbageFramesNeverWedgeTheServer) {
  Rng Rand(99);
  for (int Round = 0; Round != 40; ++Round) {
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server->port()));
    std::vector<uint8_t> Body(9 + Rand.below(64));
    for (uint8_t &B : Body)
      B = static_cast<uint8_t>(Rand.next());
    if (!Cli.sendRaw(Body))
      continue;
    // Either an error/ok reply arrives or the server closed on us;
    // both are clean. (Reads block, so a reply always terminates.)
    std::vector<uint8_t> Reply;
    (void)Cli.recvRaw(Reply);
  }
  RelClient Probe;
  ASSERT_TRUE(Probe.connect(Server->port()));
  EXPECT_TRUE(Probe.ping());
}

} // namespace
