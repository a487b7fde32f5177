#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/trace.h"

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double CalmTime(const std::vector<double>& per_round) {
  return Percentile(per_round, 0.1);
}

double CalmRate(const std::vector<double>& per_round) {
  return Percentile(per_round, 0.9);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void Run::Fail(const std::string& what) {
  // Keep the first few messages; a systematic fault repeats on every op.
  if (failures_.size() < 20) failures_.push_back(what);
  else if (failures_.size() == 20) failures_.push_back("...");
}

void Run::Count(const std::string& op, bool ok) {
  Counts& c = counts_[op];
  ++c.attempted;
  if (!ok) ++c.failed;
}

void Run::MergeCounts(const Run& other) {
  for (const auto& [op, c] : other.counts_) {
    counts_[op].attempted += c.attempted;
    counts_[op].failed += c.failed;
  }
  for (const std::string& f : other.failures_) Fail(f);
  for (const auto& [name, s] : other.samples_) {
    std::vector<double>& into = samples_[name];
    into.insert(into.end(), s.begin(), s.end());
  }
}

void Run::Metric(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, Value{value, unit}});
}

void Run::Layer(const std::string& name, double value,
                const std::string& unit) {
  layers_.push_back({name, Value{value, unit}});
}

void Run::Sample(const std::string& name, double micros) {
  samples_[name].push_back(micros);
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Run::WriteLayerTable() const {
  if (config_.results.empty()) return;
  const std::string base = config_.results + "/" + config_.workload +
                           "-seed" + std::to_string(config_.seed);
  std::ofstream out(base + "-layers.txt");
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s-layers.txt\n",
                 base.c_str());
    return;
  }
  char line[256];
  out << "# perfbench per-layer table: workload=" << config_.workload
      << " seed=" << config_.seed << " seconds=" << config_.seconds
      << "\n# timed calls (call:) and obs spans (span:), microseconds\n";
  std::snprintf(line, sizeof(line), "%-40s %10s %14s %12s %12s\n", "name",
                "count", "total_ms", "median_us", "p99_us");
  out << line;
  for (const auto& [name, s] : samples_) {
    std::snprintf(line, sizeof(line), "%-40s %10zu %14.3f %12.2f %12.2f\n",
                  name.c_str(), s.size(), Sum(s) / 1000.0, Median(s),
                  Percentile(s, 0.99));
    out << line;
  }
  out << "\n# per-layer metrics\n";
  for (const auto& [name, v] : layers_) {
    out << name << " " << Num(v.value) << " " << v.unit << "\n";
  }
  out << "\n# end-to-end metrics of this traced run (compare with untraced "
         "runs for the tracing overhead)\n";
  for (const auto& [name, v] : metrics_) {
    out << name << " " << Num(v.value) << " " << v.unit << "\n";
  }
}

int Run::Report() {
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [op, c] : counts_) {
    std::printf("ops %-22s attempted=%lld failed=%lld\n", op.c_str(),
                static_cast<long long>(c.attempted),
                static_cast<long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& f : failures_) {
    std::printf("check failed: %s\n", f.c_str());
  }
  for (const auto& [name, v] : layers_) {
    std::printf("layer %-28s %14s %s\n", name.c_str(), Num(v.value).c_str(),
                v.unit.c_str());
  }
  if (config_.trace) WriteLayerTable();
  auto object = [](const std::vector<std::pair<std::string, Value>>& v) {
    std::string out = "{";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(v[i].first) + ": {\"value\": " +
             Num(v[i].second.value) + ", \"unit\": " +
             JsonString(v[i].second.unit) + "}";
    }
    return out + "}";
  };
  std::printf("RESULT {\"correct\": %s, \"attempted\": %lld, "
              "\"failed\": %lld, \"metrics\": %s, \"layers\": %s}\n",
              correct() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), object(metrics_).c_str(),
              object(layers_).c_str());
  std::fflush(stdout);
  return 0;
}

std::map<std::string, std::vector<double>> DrainSpans(int64_t* dropped) {
  datalog::obs::Tracer& tracer = datalog::obs::Tracer::Get();
  tracer.Disable();
  std::map<std::string, std::vector<double>> out;
  for (const datalog::obs::TraceEvent& e : tracer.Snapshot()) {
    out[std::string("span:") + e.name].push_back(
        static_cast<double>(e.dur_us));
  }
  if (dropped != nullptr) *dropped += tracer.dropped();
  return out;
}

void MergeSpans(const std::map<std::string, std::vector<double>>& spans,
                std::map<std::string, std::vector<double>>* into) {
  for (const auto& [name, s] : spans) {
    std::vector<double>& v = (*into)[name];
    v.insert(v.end(), s.begin(), s.end());
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Graph::Facts(const std::string& pred) const {
  std::string out;
  out.reserve(edges.size() * (pred.size() + 20));
  for (const auto& [a, b] : edges) {
    out += pred + "(" + std::to_string(names[static_cast<size_t>(a)]) +
           ", " + std::to_string(names[static_cast<size_t>(b)]) + ").\n";
  }
  return out;
}

std::string Graph::Token(const std::string& pred, int a, int b,
                         bool insert) const {
  return std::string(insert ? "+" : "-") + pred + "(" +
         std::to_string(names[static_cast<size_t>(a)]) + "," +
         std::to_string(names[static_cast<size_t>(b)]) + ")";
}

Closure::Closure(const Graph& g, const datalog::SymbolTable& symbols)
    : n_(g.names.size()),
      reach_(n_ * n_, 0),
      edge_(n_ * n_, 0),
      active_(n_, false),
      values_(n_, -1) {
  std::vector<std::vector<int>> adj(n_);
  for (const auto& [a, b] : g.edges) {
    uint8_t& e = edge_[static_cast<size_t>(a) * n_ + static_cast<size_t>(b)];
    if (e) continue;
    e = 1;
    ++edge_count_;
    adj[static_cast<size_t>(a)].push_back(b);
    active_[static_cast<size_t>(a)] = true;
    active_[static_cast<size_t>(b)] = true;
  }
  for (size_t i = 0; i < n_; ++i) {
    if (active_[i]) ++active_count_;
    values_[i] = symbols.Find(std::to_string(g.names[i]));
    if (values_[i] >= 0) {
      const size_t v = static_cast<size_t>(values_[i]);
      if (local_.size() <= v) local_.resize(v + 1, -1);
      local_[v] = static_cast<int>(i);
    }
  }
  // BFS from every node over paths of length >= 1.
  std::vector<int> queue;
  for (size_t s = 0; s < n_; ++s) {
    uint8_t* row = &reach_[s * n_];
    queue.clear();
    for (int b : adj[s]) {
      if (!row[b]) {
        row[b] = 1;
        queue.push_back(b);
      }
    }
    for (size_t q = 0; q < queue.size(); ++q) {
      for (int b : adj[static_cast<size_t>(queue[q])]) {
        if (!row[b]) {
          row[b] = 1;
          queue.push_back(b);
        }
      }
    }
    count_ += queue.size();
  }
}

void SnapshotEncoder::Add(
    datalog::PredId pred,
    std::vector<std::pair<datalog::Value, datalog::Value>> pairs) {
  if (pairs.empty()) return;
  std::sort(pairs.begin(), pairs.end());
  preds_[pred] = std::move(pairs);
}

namespace {
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
}  // namespace

std::string SnapshotEncoder::Bytes() const {
  constexpr uint32_t kMagic = 0x31534455;  // "UDS1", little endian
  std::string out;
  PutU32(&out, kMagic);
  PutU32(&out, static_cast<uint32_t>(preds_.size()));
  for (const auto& [pred, pairs] : preds_) {
    PutU32(&out, static_cast<uint32_t>(pred));
    PutU32(&out, 2);
    PutU32(&out, static_cast<uint32_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
      PutU32(&out, static_cast<uint32_t>(a));
      PutU32(&out, static_cast<uint32_t>(b));
    }
  }
  return out;
}

std::vector<std::pair<datalog::Value, datalog::Value>> ClosurePairs(
    const Closure& c) {
  std::vector<std::pair<datalog::Value, datalog::Value>> out;
  out.reserve(c.size());
  for (int a = 0; a < c.n(); ++a) {
    for (int b = 0; b < c.n(); ++b) {
      if (c.Reach(a, b)) out.push_back({c.ValueOf(a), c.ValueOf(b)});
    }
  }
  return out;
}

std::vector<std::pair<datalog::Value, datalog::Value>> EdgePairs(
    const Graph& g, const Closure& c) {
  std::vector<std::pair<datalog::Value, datalog::Value>> out;
  for (const auto& [a, b] : g.edges) out.push_back({c.ValueOf(a), c.ValueOf(b)});
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(Uniform(i + 1))]);
  }
  return p;
}

void RemoveTree(const std::string& path) {
  if (DIR* d = ::opendir(path.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st {};
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

}  // namespace perfbench
