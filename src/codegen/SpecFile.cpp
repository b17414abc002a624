//===- codegen/SpecFile.cpp - RELC input file front end -----------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Positions: every pending directive records the 1-based line and the
// column of its payload (the text after the keyword), computed by
// pointer arithmetic — all the string_views here are subviews of the
// one input buffer. Errors resolved later (unknown column, non-key
// pattern) are anchored at that payload.
//
//===----------------------------------------------------------------------===//

#include "codegen/SpecFile.h"

#include "concurrent/ShardRouter.h"
#include "decomp/Parser.h"

#include <algorithm>
#include <cctype>
#include <vector>

using namespace relc;

namespace {

std::string_view trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

bool consumeWord(std::string_view &S, std::string_view Word) {
  std::string_view T = trim(S);
  if (T.substr(0, Word.size()) != Word)
    return false;
  // Must end at a word boundary.
  if (T.size() > Word.size() &&
      (std::isalnum(static_cast<unsigned char>(T[Word.size()])) ||
       T[Word.size()] == '_'))
    return false;
  S = T.substr(Word.size());
  return true;
}

/// Splits "a, b, c" into names; returns false on empty elements.
bool splitNames(std::string_view Text, std::vector<std::string> &Out) {
  size_t Start = 0;
  std::string S(Text);
  while (Start <= S.size()) {
    size_t Comma = S.find(',', Start);
    std::string Name(
        trim(std::string_view(S).substr(Start, Comma - Start)));
    if (Name.empty())
      return false;
    Out.push_back(std::move(Name));
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  return !Out.empty();
}

/// A directive payload with its source anchor.
struct Pending {
  unsigned Line;
  unsigned Col;
  std::string Text;
};

/// A `transaction` payload: key columns + optional arity suffix.
struct PendingTransact {
  unsigned Line;
  unsigned Col;
  std::string Cols;
  unsigned Arity;
};

class SpecFileParser {
public:
  explicit SpecFileParser(std::string_view Text) : Text(Text) {}

  SpecFileResult run() {
    std::string DecompText;
    unsigned LineNo = 0;

    size_t Pos = 0;
    while (Pos <= Text.size()) {
      size_t Eol = Text.find('\n', Pos);
      std::string_view Raw = Text.substr(
          Pos, Eol == std::string_view::npos ? std::string_view::npos
                                             : Eol - Pos);
      Pos = Eol == std::string_view::npos ? Text.size() + 1 : Eol + 1;
      ++LineNo;

      std::string_view Line = trim(Raw);
      if (Line.empty() || Line.front() == '#')
        continue;

      // 1-based column of a subview of Raw (shared buffer).
      auto colOf = [&](std::string_view Sub) -> unsigned {
        if (Sub.empty())
          return static_cast<unsigned>(Line.data() - Raw.data()) + 1;
        return static_cast<unsigned>(Sub.data() - Raw.data()) + 1;
      };
      auto pendingOf = [&](std::string_view Rest) {
        std::string_view Payload = trim(Rest);
        return Pending{LineNo, colOf(Payload), std::string(Payload)};
      };

      std::string_view Rest = Line;
      if (consumeWord(Rest, "relation")) {
        if (!parseRelation(trim(Rest)))
          return fail(LineNo, colOf(trim(Rest)),
                      "malformed relation declaration");
      } else if (consumeWord(Rest, "fd")) {
        Fds.push_back(pendingOf(Rest));
      } else if (consumeWord(Rest, "let")) {
        if (FirstLetLine == 0) {
          FirstLetLine = LineNo;
          FirstLetCol = colOf(Line);
        }
        DecompText += std::string(Line) + "\n";
      } else if (consumeWord(Rest, "class")) {
        Out.Options.ClassName = std::string(trim(Rest));
        if (Out.Options.ClassName.empty())
          return fail(LineNo, colOf(Line), "empty class name");
      } else if (consumeWord(Rest, "namespace")) {
        Out.Options.Namespace = std::string(trim(Rest));
        if (Out.Options.Namespace.empty())
          return fail(LineNo, colOf(Line), "empty namespace");
      } else if (consumeWord(Rest, "query")) {
        PendingQueries.push_back(pendingOf(Rest));
      } else if (consumeWord(Rest, "remove")) {
        PendingRemoves.push_back(pendingOf(Rest));
      } else if (consumeWord(Rest, "upsert")) {
        PendingUpserts.push_back(pendingOf(Rest));
      } else if (consumeWord(Rest, "update")) {
        PendingUpdates.push_back(pendingOf(Rest));
      } else if (consumeWord(Rest, "transaction")) {
        Pending P = pendingOf(Rest);
        unsigned Arity = 2;
        std::string ColsText;
        std::string Err;
        if (!splitTransactArity(P.Text, ColsText, Arity, Err))
          return fail(P.Line, P.Col,
                      Err.empty() ? "malformed transaction directive "
                                    "(expected 'transaction <key "
                                    "columns> [x <N>]'): '" +
                                        std::string(Line) + "'"
                                  : Err);
        PendingTransacts.push_back({P.Line, P.Col, ColsText, Arity});
      } else if (consumeWord(Rest, "wire")) {
        if (!trim(Rest).empty())
          return fail(LineNo, colOf(trim(Rest)),
                      "the wire directive takes no arguments");
        Out.Options.WireDispatch = true;
        WireLine = LineNo;
        WireCol = colOf(Line);
      } else if (consumeWord(Rest, "concurrency")) {
        std::string Err;
        if (!parseConcurrency(LineNo, Raw.data(), Rest, Err))
          return fail(LineNo, colOf(trim(Rest)),
                      Err.empty()
                          ? "malformed concurrency directive (expected "
                            "'concurrency sharded <N> [on <column>]'): '" +
                                std::string(Line) + "'"
                          : Err);
      } else {
        return fail(LineNo, colOf(Line),
                    "unknown directive: '" + std::string(Line) + "'");
      }
    }

    if (Columns.empty())
      return fail(0, 0, "missing 'relation' declaration");

    // Build the spec.
    std::vector<std::pair<std::string, std::string>> FdPairs;
    for (const Pending &Fd : Fds) {
      size_t Arrow = Fd.Text.find("->");
      if (Arrow == std::string::npos)
        return fail(Fd.Line, Fd.Col, "fd is missing '->': " + Fd.Text);
      std::string_view V = Fd.Text;
      FdPairs.emplace_back(std::string(trim(V.substr(0, Arrow))),
                           std::string(trim(V.substr(Arrow + 2))));
    }
    Out.Spec = RelSpec::make(RelationName, Columns, FdPairs);

    // Parse the decomposition in the Fig. 3 language.
    if (DecompText.empty())
      return fail(0, 0, "missing 'let' bindings (no decomposition)");
    ParseResult Parsed = parseDecomposition(Out.Spec, DecompText);
    if (!Parsed.ok())
      return fail(FirstLetLine, FirstLetCol,
                  "decomposition: " + Parsed.Error);
    Out.Decomp = std::move(Parsed.Decomp);

    // Resolve the method set against the catalog.
    const Catalog &Cat = Out.Spec->catalog();
    for (const Pending &P : PendingQueries) {
      const std::string &Q = P.Text;
      // name (in, cols) -> (out, cols)
      size_t Open = Q.find('(');
      if (Open == std::string::npos)
        return fail(P.Line, P.Col, "query needs '(inputs) -> (outputs)'");
      std::string Name(trim(std::string_view(Q).substr(0, Open)));
      size_t Close = Q.find(')', Open);
      size_t Arrow = Q.find("->", Close);
      size_t Open2 = Q.find('(', Arrow == std::string::npos ? Q.size()
                                                            : Arrow);
      size_t Close2 = Q.find(')', Open2);
      if (Name.empty() || Close == std::string::npos ||
          Arrow == std::string::npos || Open2 == std::string::npos ||
          Close2 == std::string::npos)
        return fail(P.Line, P.Col, "malformed query directive");
      ColumnSet In, OutCols;
      if (!parseCols(Cat, Q.substr(Open + 1, Close - Open - 1), In))
        return fail(P.Line, P.Col, "unknown column in query inputs");
      if (!parseCols(Cat, Q.substr(Open2 + 1, Close2 - Open2 - 1), OutCols))
        return fail(P.Line, P.Col, "unknown column in query outputs");
      if (OutCols.empty())
        return fail(P.Line, P.Col, "query outputs are empty");
      Out.Options.Queries.push_back({Name, In, OutCols});
    }
    for (const Pending &P : PendingRemoves) {
      ColumnSet Key;
      if (!parseCols(Cat, P.Text, Key) || Key.empty())
        return fail(P.Line, P.Col, "malformed remove key");
      if (!Out.Spec->fds().isKey(Key, Out.Spec->columns()))
        return fail(P.Line, P.Col,
                    "remove pattern {" + P.Text + "} is not a key");
      Out.Options.RemoveKeys.push_back(Key);
    }
    for (const Pending &P : PendingUpdates) {
      ColumnSet Key;
      if (!parseCols(Cat, P.Text, Key) || Key.empty())
        return fail(P.Line, P.Col, "malformed update key");
      if (!Out.Spec->fds().isKey(Key, Out.Spec->columns()))
        return fail(P.Line, P.Col,
                    "update pattern {" + P.Text + "} is not a key");
      Out.Options.UpdateKeys.push_back(Key);
    }
    for (const Pending &P : PendingUpserts) {
      ColumnSet Key;
      if (!parseCols(Cat, P.Text, Key) || Key.empty())
        return fail(P.Line, P.Col, "malformed upsert key");
      if (!Out.Spec->fds().isKey(Key, Out.Spec->columns()))
        return fail(P.Line, P.Col,
                    "upsert pattern {" + P.Text + "} is not a key");
      Out.Options.UpsertKeys.push_back(Key);
    }
    for (const PendingTransact &P : PendingTransacts) {
      ColumnSet Key;
      if (!parseCols(Cat, P.Cols, Key) || Key.empty())
        return fail(P.Line, P.Col, "malformed transaction key");
      if (!Out.Spec->fds().isKey(Key, Out.Spec->columns()))
        return fail(P.Line, P.Col,
                    "transaction pattern {" + P.Cols + "} is not a key");
      Out.Options.Transactions.push_back({Key, P.Arity});
    }
    if (!ShardColumnName.empty()) {
      std::optional<ColumnId> Id = Cat.find(ShardColumnName);
      if (!Id)
        return fail(ConcurrencyLine, ConcurrencyCol,
                    "unknown shard column '" + ShardColumnName + "'");
      Out.Options.ConcurrentShardColumn = *Id;
    }
    if (Out.Options.WireDispatch && Out.Options.ConcurrentShards == 0)
      return fail(WireLine, WireCol,
                  "the wire directive requires a concurrency facade "
                  "(the dispatch table targets <class>_concurrent)");

    return finish();
  }

private:
  SpecFileResult fail(unsigned LineNo, unsigned Col,
                      const std::string &Msg) {
    SpecFileResult R;
    R.Error = Msg;
    R.Line = LineNo;
    R.Col = LineNo == 0 ? 0 : std::max(Col, 1u);
    return R;
  }

  SpecFileResult finish() {
    SpecFileResult R;
    R.File = std::move(Out);
    return R;
  }

  /// Splits an optional trailing "x <N>" arity suffix off a
  /// `transaction` payload. "owner, acct x 3" -> ("owner, acct", 3);
  /// no suffix leaves the default arity 2. A trailing integer without
  /// the `x` separator is malformed (returns false with a grammar
  /// hint via the caller); an out-of-range arity sets \p Err.
  static bool splitTransactArity(const std::string &Payload,
                                 std::string &Cols, unsigned &Arity,
                                 std::string &Err) {
    std::string_view T = trim(Payload);
    Cols = std::string(T);
    if (T.empty())
      return true; // "malformed transaction key" fires later.
    // Last whitespace-delimited token.
    size_t End = T.size();
    size_t P = End;
    while (P > 0 && !std::isspace(static_cast<unsigned char>(T[P - 1])))
      --P;
    std::string_view LastTok = T.substr(P, End - P);
    bool AllDigits = !LastTok.empty();
    for (char C : LastTok)
      AllDigits &= std::isdigit(static_cast<unsigned char>(C)) != 0;
    if (!AllDigits)
      return true; // no arity suffix
    // The token before the number must be exactly "x".
    size_t Q = P;
    while (Q > 0 && std::isspace(static_cast<unsigned char>(T[Q - 1])))
      --Q;
    size_t X = Q;
    while (X > 0 && !std::isspace(static_cast<unsigned char>(T[X - 1])))
      --X;
    std::string_view Sep = T.substr(X, Q - X);
    if (Sep != "x")
      return false;
    unsigned long V = 0;
    for (char C : LastTok) {
      V = std::min(V * 10 + static_cast<unsigned long>(C - '0'),
                   100000ul); // saturate; only the range check matters
    }
    if (V < 2 || V > MaxTransactArity) {
      Err = "transaction arity must be in [2, " +
            std::to_string(MaxTransactArity) +
            "] (one key tuple per side)";
      return false;
    }
    Arity = static_cast<unsigned>(V);
    Cols = std::string(trim(T.substr(0, X)));
    return true;
  }

  /// `sharded <N> [on <column>]` (the word `concurrency` is already
  /// consumed). The column is resolved against the catalog after the
  /// relation declaration is built. On failure \p Err is set when a
  /// more specific diagnostic than the grammar message applies.
  bool parseConcurrency(unsigned LineNo, const char *RawBegin,
                        std::string_view Rest, std::string &Err) {
    // The last directive wins outright: clear any earlier `on` clause
    // so a bare `concurrency sharded N` falls back to the default
    // shard column as documented.
    ShardColumnName.clear();
    if (!consumeWord(Rest, "sharded"))
      return false;
    std::string_view T = trim(Rest);
    size_t Len = 0;
    unsigned Shards = 0;
    while (Len != T.size() &&
           std::isdigit(static_cast<unsigned char>(T[Len]))) {
      // Saturate: only the [1, MaxShards] range check below matters.
      Shards = std::min(Shards * 10 + static_cast<unsigned>(T[Len] - '0'),
                        MaxShards + 1);
      ++Len;
    }
    if (Len == 0)
      return false;
    if (Shards == 0 || Shards > MaxShards) {
      Err = "shard count must be in [1, " + std::to_string(MaxShards) +
            "] (the facade holds a sub-instance and a padded lock per "
            "shard)";
      return false;
    }
    T = trim(T.substr(Len));
    if (!T.empty()) {
      if (!consumeWord(T, "on"))
        return false;
      T = trim(T);
      if (T.empty())
        return false;
      ShardColumnName = std::string(T);
      // Anchor the deferred "unknown shard column" error at the name.
      ConcurrencyCol = static_cast<unsigned>(T.data() - RawBegin) + 1;
    }
    Out.Options.ConcurrentShards = Shards;
    ConcurrencyLine = LineNo;
    return true;
  }

  bool parseRelation(std::string_view Decl) {
    size_t Open = Decl.find('(');
    size_t Close = Decl.rfind(')');
    if (Open == std::string_view::npos || Close == std::string_view::npos ||
        Close < Open)
      return false;
    RelationName = std::string(trim(Decl.substr(0, Open)));
    if (RelationName.empty())
      return false;
    return splitNames(Decl.substr(Open + 1, Close - Open - 1), Columns);
  }

  static bool parseCols(const Catalog &Cat, std::string_view Text,
                        ColumnSet &Out) {
    std::vector<std::string> Names;
    std::string_view T = trim(Text);
    if (T.empty()) {
      Out = ColumnSet();
      return true;
    }
    if (!splitNames(T, Names))
      return false;
    for (const std::string &N : Names) {
      std::optional<ColumnId> Id = Cat.find(N);
      if (!Id)
        return false;
      Out.insert(*Id);
    }
    return true;
  }

  std::string_view Text;
  std::string RelationName;
  std::vector<std::string> Columns;
  std::vector<Pending> Fds;
  std::vector<Pending> PendingQueries;
  std::vector<Pending> PendingRemoves;
  std::vector<Pending> PendingUpdates;
  std::vector<Pending> PendingUpserts;
  std::vector<PendingTransact> PendingTransacts;
  std::string ShardColumnName;
  unsigned FirstLetLine = 0;
  unsigned FirstLetCol = 0;
  unsigned ConcurrencyLine = 0;
  unsigned ConcurrencyCol = 1;
  unsigned WireLine = 0;
  unsigned WireCol = 1;
  SpecFile Out;
};

} // namespace

SpecFileResult relc::parseSpecFile(std::string_view Text) {
  return SpecFileParser(Text).run();
}
