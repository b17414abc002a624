//===- relbench/Report.cpp - Metrics, run metadata and traces -------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sys/resource.h>
#include <sys/statfs.h>

namespace relbench {

static const Clock::time_point ProcessStart = Clock::now();

void progress(const char *Fmt, ...) {
  std::fprintf(stderr, "[%7.3f] ", secondsBetween(ProcessStart, Clock::now()));
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fputc('\n', stderr);
}

std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / V.size();
}

double batchMedian(const std::vector<double> &V, size_t Batch) {
  std::vector<double> Means;
  for (size_t I = 0; I < V.size(); I += Batch) {
    size_t End = std::min(V.size(), I + Batch);
    double Sum = 0;
    for (size_t J = I; J != End; ++J)
      Sum += V[J];
    Means.push_back(Sum / static_cast<double>(End - I));
  }
  return percentile(Means, 50);
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string fsType(const std::string &Dir) {
  struct statfs S {};
  if (statfs(Dir.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x794C7630:
    return "overlayfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(S.f_type));
    return Buf;
  }
  }
}

void Report::meta(std::string Key, std::string Value) {
  Meta.push_back({std::move(Key), "\"" + jsonEscape(Value) + "\""});
}

void Report::meta(std::string Key, double Value) {
  Meta.push_back({std::move(Key), jsonNumber(Value)});
}

void Report::metric(std::string Name, std::string Unit, double Value) {
  Metrics.push_back({std::move(Name), std::move(Unit), Value});
}

void Report::count(std::string Name, double Value) {
  Counts.emplace_back(std::move(Name), Value);
}

void Report::print() const {
  for (const Metric &M : Metrics)
    std::printf("  %-34s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const auto &[Name, V] : Counts)
    std::printf("  %-34s %16.0f\n", Name.c_str(), V);
}

static std::string metricsObject(const std::vector<Metric> &Metrics) {
  std::string S = "{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    S += (I ? ", \"" : "\"") + jsonEscape(M.Name) + "\": {\"value\": " +
         jsonNumber(M.Value) + ", \"unit\": \"" + jsonEscape(M.Unit) + "\"}";
  }
  return S + "}";
}

std::string Report::resultLine(bool Correct, uint64_t Attempted,
                               uint64_t Failed) const {
  return std::string("{\"correct\": ") + (Correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) +
         ", \"metrics\": " + metricsObject(Metrics) + "}";
}

bool Report::write(const std::string &Path, bool Correct, uint64_t Attempted,
                   uint64_t Failed) const {
  std::string S = "{\n  \"bench\": \"relbench\",\n  \"meta\": {";
  for (size_t I = 0; I != Meta.size(); ++I)
    S += (I ? ", \"" : "\"") + jsonEscape(Meta[I].Key) + "\": " + Meta[I].Json;
  S += "},\n  \"counts\": {";
  for (size_t I = 0; I != Counts.size(); ++I)
    S += (I ? ", \"" : "\"") + jsonEscape(Counts[I].first) +
         "\": " + jsonNumber(Counts[I].second);
  S += "},\n  \"result\": " + resultLine(Correct, Attempted, Failed) + "\n}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "relbench: cannot write %s\n", Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(S.data(), 1, S.size(), F) == S.size();
  return std::fclose(F) == 0 && Ok;
}

void Trace::span(std::string_view Name, int Tid, Clock::time_point Start,
                 Clock::time_point End) {
  Events.push_back("{\"name\": \"" + jsonEscape(Name) +
                   "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
                   std::to_string(Tid) + ", \"ts\": " + jsonNumber(us(Start)) +
                   ", \"dur\": " + jsonNumber(us(End) - us(Start)) + "}");
}

void Trace::request(std::string_view Name, uint64_t Id, int Tid,
                    Clock::time_point Start, Clock::time_point End) {
  std::string Common = "\"name\": \"" + jsonEscape(Name) +
                       "\", \"cat\": \"request\", \"id\": " +
                       std::to_string(Id) + ", \"pid\": 1, \"tid\": " +
                       std::to_string(Tid);
  Events.push_back("{" + Common + ", \"ph\": \"b\", \"ts\": " +
                   jsonNumber(us(Start)) + "}");
  Events.push_back("{" + Common + ", \"ph\": \"e\", \"ts\": " +
                   jsonNumber(us(End)) + "}");
}

void Trace::selfTime(std::string Layer, double Ms) {
  Self.emplace_back(std::move(Layer), Ms);
}

bool Trace::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "relbench: cannot write %s\n", Path.c_str());
    return false;
  }
  std::fputs("{\"displayTimeUnit\": \"ns\", \"otherData\": {\"self_ms\": {",
             F);
  for (size_t I = 0; I != Self.size(); ++I)
    std::fprintf(F, "%s\"%s\": %s", I ? ", " : "",
                 jsonEscape(Self[I].first).c_str(),
                 jsonNumber(Self[I].second).c_str());
  std::fputs("}},\n\"traceEvents\": [\n", F);
  for (size_t I = 0; I != Events.size(); ++I)
    std::fprintf(F, "%s%s\n", Events[I].c_str(),
                 I + 1 == Events.size() ? "" : ",");
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace relbench
