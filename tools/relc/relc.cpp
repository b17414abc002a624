//===- tools/relc/relc.cpp - The RELC command-line compiler -------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The paper's compiler as a tool — a thin driver over the pipeline:
//
//   parse (SpecFile) -> lower (ir::Lowering) -> passes (ir::PassManager)
//     -> backend (codegen/backend)
//
//   relc input.relc                emit the C++ header to stdout
//   relc -o out.h input.relc       emit to a file
//   relc --check input.relc        parse + adequacy check only
//   relc --print input.relc        echo the parsed decomposition
//   relc --dot input.relc          Graphviz rendering of the decomposition
//   relc --dump-ir input.relc      print the post-pass IR instead of code
//   relc --no-opt input.relc       skip optimization passes (dead-index
//                                  elimination); canonicalization passes
//                                  (dedup, lock plans) always run
//   relc --backend NAME input.relc pick the emission backend (default cpp)
//   relc --shards N input.relc     also emit the sharded concurrent facade
//                                  (overrides the `concurrency` directive)
//   relc --shard-column COL ...    shard column for the facade
//
// The `transaction` directive (transact_by_* on the facade) requires a
// facade to attach to: a spec using it without a `concurrency`
// directive needs --shards N, and --shards 0 is rejected for it.
//
// Spec errors are reported as `relc: FILE:LINE:COL: error: ...`.
//
//===----------------------------------------------------------------------===//

#include "codegen/SpecFile.h"
#include "codegen/backend/Backend.h"
#include "codegen/ir/IrPrinter.h"
#include "codegen/ir/Lowering.h"
#include "codegen/ir/Passes.h"
#include "concurrent/ShardRouter.h"
#include "decomp/Adequacy.h"
#include "decomp/Printer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace relc;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--check | --print | --dot | --dump-ir] "
               "[--no-opt] [--backend NAME] [-o FILE] "
               "[--shards N] [--shard-column COL] INPUT\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const char *Input = nullptr;
  const char *Output = nullptr;
  const char *ShardColumn = nullptr;
  const char *BackendName = "cpp";
  int Shards = -1; // -1: follow the input file's `concurrency` directive
  bool RunOptimizations = true;
  enum { EmitCode, CheckOnly, PrintDecomp, PrintDot, DumpIr } Mode =
      EmitCode;

  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--check") == 0)
      Mode = CheckOnly;
    else if (std::strcmp(argv[I], "--print") == 0)
      Mode = PrintDecomp;
    else if (std::strcmp(argv[I], "--dot") == 0)
      Mode = PrintDot;
    else if (std::strcmp(argv[I], "--dump-ir") == 0)
      Mode = DumpIr;
    else if (std::strcmp(argv[I], "--no-opt") == 0)
      RunOptimizations = false;
    else if (std::strcmp(argv[I], "--backend") == 0 && I + 1 < argc)
      BackendName = argv[++I];
    else if (std::strcmp(argv[I], "-o") == 0 && I + 1 < argc)
      Output = argv[++I];
    else if (std::strcmp(argv[I], "--shards") == 0 && I + 1 < argc) {
      // 0 suppresses the facade (overriding a `concurrency`
      // directive); the upper bound is the directive's sanity cap —
      // the facade holds a by-value sub-instance and a padded lock
      // per shard. Parse strictly: "four" or "4x" must not silently
      // become a facade-stripping 0 (or a truncated 4).
      const char *Arg = argv[++I];
      char *End = nullptr;
      long V = std::strtol(Arg, &End, 10);
      if (End == Arg || *End != '\0' || V < 0 || V > MaxShards) {
        std::fprintf(stderr,
                     "relc: error: --shards must be an integer in "
                     "[0, %u] (0 disables the facade)\n",
                     MaxShards);
        return 2;
      }
      Shards = static_cast<int>(V);
    } else if (std::strcmp(argv[I], "--shard-column") == 0 && I + 1 < argc)
      ShardColumn = argv[++I];
    else if (argv[I][0] == '-')
      return usage(argv[0]);
    else if (!Input)
      Input = argv[I];
    else
      return usage(argv[0]);
  }
  if (!Input)
    return usage(argv[0]);

  std::ifstream In(Input);
  if (!In) {
    std::fprintf(stderr, "relc: error: cannot open '%s'\n", Input);
    return 1;
  }
  std::stringstream Ss;
  Ss << In.rdbuf();

  SpecFileResult Parsed = parseSpecFile(Ss.str());
  if (!Parsed.ok()) {
    // FILE:LINE:COL:, the format editors and CI annotators understand.
    if (Parsed.Line > 0)
      std::fprintf(stderr, "relc: %s:%u:%u: error: %s\n", Input,
                   Parsed.Line, Parsed.Col, Parsed.Error.c_str());
    else
      std::fprintf(stderr, "relc: %s: error: %s\n", Input,
                   Parsed.Error.c_str());
    return 1;
  }
  SpecFile &File = *Parsed.File;

  // CLI overrides for the concurrent facade (see docs/RELC_CLI.md).
  if (Shards >= 0)
    File.Options.ConcurrentShards = static_cast<unsigned>(Shards);
  if (ShardColumn) {
    std::optional<ColumnId> Id = File.Spec->catalog().find(ShardColumn);
    if (!Id) {
      std::fprintf(stderr,
                   "relc: %s: error: --shard-column '%s' is not a column "
                   "of the relation\n",
                   Input, ShardColumn);
      return 1;
    }
    // A shard column with no facade to shard is a silent no-op the
    // user will only discover when their client code fails to find
    // the concurrent class; reject it up front.
    if (File.Options.ConcurrentShards == 0) {
      std::fprintf(stderr,
                   "relc: %s: error: --shard-column requires a facade "
                   "(pass --shards N or add a `concurrency` directive)\n",
                   Input);
      return 1;
    }
    File.Options.ConcurrentShardColumn = *Id;
  }

  // transact_by_* lives on the concurrent facade: without one the
  // directive would silently vanish from the emitted header, so reject
  // the combination up front (after the overrides, so `--shards N` can
  // supply the facade and `--shards 0` is caught stripping it).
  if (!File.Options.Transactions.empty() &&
      File.Options.ConcurrentShards == 0) {
    std::fprintf(stderr,
                 "relc: %s: error: `transaction` requires a concurrent "
                 "facade (add a `concurrency sharded N` directive or "
                 "pass --shards N)\n",
                 Input);
    return 1;
  }

  AdequacyResult Adequate = checkAdequacy(*File.Decomp);
  if (!Adequate.Ok) {
    std::fprintf(stderr,
                 "relc: %s: error: decomposition is not adequate for the "
                 "specification: %s\n",
                 Input, Adequate.Error.c_str());
    return 1;
  }

  std::string Text;
  switch (Mode) {
  case CheckOnly:
    std::fprintf(stderr, "%s: ok (%u nodes, %u edges, adequate)\n", Input,
                 File.Decomp->numNodes(), File.Decomp->numEdges());
    return 0;
  case PrintDecomp:
    Text = printDecomposition(*File.Decomp);
    break;
  case PrintDot:
    Text = printDecompositionDot(*File.Decomp);
    break;
  case DumpIr:
  case EmitCode: {
    // The pipeline, stage by stage: lower, passes, then (for code
    // emission) the chosen backend over the canonical IR.
    std::unique_ptr<Backend> B = createBackend(BackendName);
    if (!B) {
      std::string Known;
      for (std::string_view N : backendNames())
        Known += (Known.empty() ? "" : ", ") + std::string(N);
      std::fprintf(stderr,
                   "relc: error: unknown backend '%s' (known: %s)\n",
                   BackendName, Known.c_str());
      return 2;
    }
    ir::Module M = lowerToIr(*File.Decomp, File.Options);
    ir::PassManager PM;
    ir::addDefaultPasses(PM);
    PM.run(M, RunOptimizations);
    Text = Mode == DumpIr ? ir::printModule(M) : B->emit(M);
    break;
  }
  }

  if (!Output) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  std::ofstream OutFile(Output);
  if (!OutFile) {
    std::fprintf(stderr, "relc: error: cannot write '%s'\n", Output);
    return 1;
  }
  OutFile << Text;
  return 0;
}
