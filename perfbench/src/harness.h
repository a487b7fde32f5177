#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the repository benchmark (perfbench/README.md): run
// configuration, the run record (correctness, per-operation counts,
// metrics, per-layer samples), latency statistics, the independent
// closure oracle and its canonical byte encoder, and a scratch directory.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/symbols.h"
#include "ra/catalog.h"
#include "ra/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer mode: tracing on, probes on, per-layer metrics reported.
  bool trace = false;
  /// Writable directory the run may use (store directories, probe logs).
  std::string scratch;
  /// Where the traced run writes its per-layer table ("" = nowhere).
  std::string results;
  Clock::time_point process_start;
};

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty series.
double Percentile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
/// The figure a run reports from per-round (or per-window) figures: the
/// 10th percentile of a time, the 90th of a rate. The host runs slower by
/// up to ~1.6x in phases of a fraction of a second to a few seconds that
/// cover a varying share of a run; a median over rounds flips between the
/// two speeds with that share, while the calm tenth of rounds does not.
double CalmTime(const std::vector<double>& per_round);
double CalmRate(const std::vector<double>& per_round);
double Sum(const std::vector<double>& v);

/// Everything one run reports.
class Run {
 public:
  explicit Run(const Config& config) : config_(config) {}

  const Config& config() const { return config_; }

  /// Records a failed correctness check: the run is reported incorrect.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Counts one attempted operation of type `op`; `ok` = false when the
  /// program refused it (an error status, a dropped connection).
  void Count(const std::string& op, bool ok);
  /// Merges the counts of another run (used by worker threads).
  void MergeCounts(const Run& other);

  /// End-to-end and per-layer metrics.
  void Metric(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);

  /// One timed call into a public function, in microseconds: the
  /// per-layer table reports count/total/median/p99 per name.
  void Sample(const std::string& name, double micros);

  /// Prints the per-operation counts, the failed checks and the RESULT
  /// line (every metric measured) on stdout and, in traced runs, writes
  /// the per-layer table. Returns the exit code.
  int Report();

 private:
  struct Counts {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  struct Value {
    double value = 0;
    std::string unit;
  };
  void WriteLayerTable() const;

  Config config_;
  std::vector<std::string> failures_;
  std::map<std::string, Counts> counts_;
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::pair<std::string, Value>> layers_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Span durations (microseconds) of the current tracing session, grouped
/// by span name. Disables tracing. Call only when no thread that recorded
/// spans can still be inside one (obs::Tracer::Snapshot's contract).
std::map<std::string, std::vector<double>> DrainSpans(int64_t* dropped);
/// Appends `spans` into `into` (per name).
void MergeSpans(const std::map<std::string, std::vector<double>>& spans,
                std::map<std::string, std::vector<double>>* into);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

// -- The closure oracle ---------------------------------------------------

/// A directed graph over integer-named nodes, built by the benchmark.
struct Graph {
  /// Node names (the integers written into facts), local index order.
  std::vector<int64_t> names;
  std::vector<std::pair<int, int>> edges;  // local indices

  int AddNode(int64_t name) {
    names.push_back(name);
    return static_cast<int>(names.size()) - 1;
  }
  /// `pred(a, b).` facts, one per edge.
  std::string Facts(const std::string& pred) const;
  /// `+pred(a,b)` / `-pred(a,b)` update token of one edge.
  std::string Token(const std::string& pred, int a, int b, bool insert) const;
};

/// Reachability over a Graph, computed by BFS from every node: the
/// transitive closure the Datalog models are checked against.
class Closure {
 public:
  Closure(const Graph& g, const datalog::SymbolTable& symbols);
  /// Nodes occurring in an edge (the active domain of the edge relation).
  bool Active(int i) const { return active_[static_cast<size_t>(i)]; }
  bool Reach(int a, int b) const {
    return reach_[static_cast<size_t>(a) * n_ + static_cast<size_t>(b)];
  }
  bool Edge(int a, int b) const {
    return edge_[static_cast<size_t>(a) * n_ + static_cast<size_t>(b)];
  }
  size_t size() const { return count_; }
  size_t edge_count() const { return edge_count_; }
  int64_t active_count() const { return active_count_; }
  int n() const { return static_cast<int>(n_); }
  /// Local index of a symbol, -1 when the symbol is not a node.
  int Local(datalog::Value v) const {
    const size_t i = static_cast<size_t>(v);
    return v >= 0 && i < local_.size() ? local_[i] : -1;
  }
  datalog::Value ValueOf(int i) const { return values_[static_cast<size_t>(i)]; }

 private:
  size_t n_ = 0;
  std::vector<uint8_t> reach_;
  std::vector<uint8_t> edge_;
  std::vector<bool> active_;
  std::vector<datalog::Value> values_;
  std::vector<int> local_;
  size_t count_ = 0;
  size_t edge_count_ = 0;
  int64_t active_count_ = 0;
};

/// True when binary relation `rel` holds exactly the pairs (a, b) with
/// `want(a, b)`, where `want` ranges over local node indices and accepts
/// `expected` pairs in all; on a mismatch `*why` says what differs.
template <typename Want>
bool PairsEqual(const datalog::Relation& rel, const Closure& c,
                size_t expected, Want want, std::string* why) {
  if (rel.size() != expected) {
    *why = "has " + std::to_string(rel.size()) + " facts, expected " +
           std::to_string(expected);
    return false;
  }
  for (const datalog::Tuple& t : rel) {
    const int a = t.size() == 2 ? c.Local(t[0]) : -1;
    const int b = t.size() == 2 ? c.Local(t[1]) : -1;
    if (a < 0 || b < 0 || !want(a, b)) {
      *why = "holds a fact the closure does not";
      return false;
    }
  }
  return true;
}

/// Canonical snapshot bytes (the Instance::SerializeSnapshot layout:
/// u32 magic, u32 #preds, per predicate in id order u32 id, u32 arity,
/// u32 count, sorted tuples as u32 words) of binary relations given as
/// value pairs. Written here, apart from the program, so served bytes can
/// be compared with the oracle's.
class SnapshotEncoder {
 public:
  void Add(datalog::PredId pred,
           std::vector<std::pair<datalog::Value, datalog::Value>> pairs);
  std::string Bytes() const;

 private:
  std::map<datalog::PredId,
           std::vector<std::pair<datalog::Value, datalog::Value>>>
      preds_;
};

/// The closure's pairs (all of them) as values.
std::vector<std::pair<datalog::Value, datalog::Value>> ClosurePairs(
    const Closure& c);
/// The graph's edges as values.
std::vector<std::pair<datalog::Value, datalog::Value>> EdgePairs(
    const Graph& g, const Closure& c);

/// splitmix64: the same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed)
      : state_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int Uniform(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
  /// A uniformly random permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
};

/// Removes `path` and everything below it.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
