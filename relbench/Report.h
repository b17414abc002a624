//===- relbench/Report.h - Metrics, run metadata and traces -----*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a relbench run prints and writes: named metrics with units, the
/// one-line result the benchmark contract reads, a JSON report with
/// provenance metadata, and a Chrome trace-event file of the spans a
/// traced run recorded (kept in memory until the run ends).
///
//===----------------------------------------------------------------------===//

#ifndef RELBENCH_REPORT_H
#define RELBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace relbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// One progress line on stderr, stamped with seconds since start.
void progress(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// \p S as a JSON string body: quotes, backslashes and control
/// characters escaped.
std::string jsonEscape(std::string_view S);

/// \p V with every significant digit; non-finite values become null.
std::string jsonNumber(double V);

/// Nearest-rank percentile \p P (0..100) of \p V, which is sorted in
/// place; 0 for an empty sample.
double percentile(std::vector<double> &V, double P);
double mean(const std::vector<double> &V);
/// Median of the means of consecutive batches of \p Batch samples: as
/// robust to outliers as a median, but not quantized to the clock's
/// tick, so a nanosecond timing does not read the same on every run.
double batchMedian(const std::vector<double> &V, size_t Batch = 64);

/// Peak resident set of this process so far, MiB.
double peakRssMiB();
/// Filesystem type of the directory \p Dir (statfs), e.g. "ext4".
std::string fsType(const std::string &Dir);

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

class Report {
public:
  void meta(std::string Key, std::string Value);
  void meta(std::string Key, double Value);
  void metric(std::string Name, std::string Unit, double Value);
  /// A number that qualifies the metrics (sample counts), reported but
  /// not part of the result line.
  void count(std::string Name, double Value);

  /// Prints every metric and count, one per line.
  void print() const;
  /// The contract's last stdout line.
  std::string resultLine(bool Correct, uint64_t Attempted,
                         uint64_t Failed) const;
  /// The whole report as one JSON object; false if \p Path cannot be
  /// written.
  bool write(const std::string &Path, bool Correct, uint64_t Attempted,
             uint64_t Failed) const;

private:
  struct MetaValue {
    std::string Key;
    std::string Json;
  };
  std::vector<MetaValue> Meta;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, double>> Counts;
};

/// In-memory spans of a traced run, written as Chrome trace-event JSON.
class Trace {
public:
  Trace() : Origin(Clock::now()) {}

  /// A span on thread \p Tid; spans of one thread nest by time.
  void span(std::string_view Name, int Tid, Clock::time_point Start,
            Clock::time_point End);
  /// One request's span pair (async, keyed by \p Id): overlapping
  /// pipelined requests of one connection stay separate.
  void request(std::string_view Name, uint64_t Id, int Tid,
               Clock::time_point Start, Clock::time_point End);
  /// Self time of one layer: its span minus what its child spans cover.
  void selfTime(std::string Layer, double Ms);

  bool write(const std::string &Path) const;

private:
  double us(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  }

  Clock::time_point Origin;
  std::vector<std::string> Events;
  std::vector<std::pair<std::string, double>> Self;
};

} // namespace relbench

#endif // RELBENCH_REPORT_H
