// The `materialize` workload: library use with no server (README.md).
//
// Set-up parses the suite and the maintained program, loads the facts,
// creates the IncrementalView and runs kWarmupRounds untimed rounds. The
// timed phase repeats whole rounds until --seconds have passed. One round:
//   1. evaluates the suite from scratch on the hash and then the columnar
//      backend at the default thread count — TC over a long chain (many
//      narrow rounds), TC over a random two-component digraph (few wide
//      rounds) and a stratified-negation program over the same digraph;
//   2. maintains the view through four bulk batches: insert fresh-source
//      edges, retract them, retract ring skip edges (DRed overdeletes and
//      rederives the whole closure), re-insert them;
//   3. maintains it through single-fact batches toggling one edge.
// Every model is checked against the benchmark's own BFS closure.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "eval/incremental.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using datalog::Engine;
using datalog::EvalStats;
using datalog::FactUpdate;
using datalog::IncrementalView;
using datalog::Instance;
using datalog::PredId;
using datalog::Program;
using datalog::Relation;
using datalog::storage::StorageBackend;

// Input sizes (README.md#inputs). Work is the same on every seed: the
// seed only relabels nodes and picks which edges join fixed-size parts.
constexpr int kChainNodes = 400;
constexpr int kHalfNodes = 120;        // per strongly connected half
constexpr int kExtraPerNode = 2;       // extra edges per node in a half
constexpr int kCrossEdges = 64;        // first half -> second half
constexpr int kRingNodes = 120;        // maintained double ring
constexpr int kBulkEdges = 128;        // fresh-source edges per bulk batch
constexpr int kDredEdges = 8;          // skip edges per DRed batch
constexpr int kSinglesPerRound = 99;   // single-fact batches per round
constexpr int kWarmupRounds = 1;       // untimed rounds, part of set-up

const char kChainProgram[] =
    "tc(X, Y) :- c(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), c(Y, Z).\n";
const char kRandomProgram[] =
    "tr(X, Y) :- g(X, Y).\n"
    "tr(X, Z) :- tr(X, Y), g(Y, Z).\n";
const char kNegationProgram[] =
    "node(X) :- g(X, Y).\n"
    "node(Y) :- g(X, Y).\n"
    "reach(X, Y) :- g(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), g(Y, Z).\n"
    "unreach(X, Y) :- node(X), node(Y), not reach(X, Y).\n";
// `m` is recursive (a DRed stratum); `far`, the edges on no cycle, sits
// in a flat stratum above it (counting).
const char kMaintainProgram[] =
    "m(X, Y) :- d(X, Y).\n"
    "m(X, Z) :- m(X, Y), d(Y, Z).\n"
    "far(X, Y) :- d(X, Y), not m(Y, X).\n";

Graph Chain(Rng* rng) {
  Graph g;
  const std::vector<int> perm = rng->Permutation(kChainNodes);
  for (int i = 0; i < kChainNodes; ++i) g.AddNode(100000 + perm[static_cast<size_t>(i)]);
  for (int i = 0; i + 1 < kChainNodes; ++i) g.edges.push_back({i, i + 1});
  return g;
}

/// Two strongly connected halves (a random Hamiltonian cycle plus random
/// extra edges each) joined by edges from the first half to the second:
/// the closure has exactly h*2h + h*h pairs and the complement h*h.
Graph TwoHalves(Rng* rng) {
  Graph g;
  const int n = 2 * kHalfNodes;
  const std::vector<int> perm = rng->Permutation(n);
  for (int i = 0; i < n; ++i) g.AddNode(200000 + perm[static_cast<size_t>(i)]);
  std::vector<uint8_t> has(static_cast<size_t>(n) * static_cast<size_t>(n), 0);
  auto add = [&](int a, int b) {
    uint8_t& e = has[static_cast<size_t>(a) * static_cast<size_t>(n) +
                     static_cast<size_t>(b)];
    if (a == b || e) return false;
    e = 1;
    g.edges.push_back({a, b});
    return true;
  };
  for (int half = 0; half < 2; ++half) {
    const int base = half * kHalfNodes;
    const std::vector<int> cycle = rng->Permutation(kHalfNodes);
    for (int i = 0; i < kHalfNodes; ++i) {
      add(base + cycle[static_cast<size_t>(i)],
          base + cycle[static_cast<size_t>((i + 1) % kHalfNodes)]);
    }
    for (int i = 0; i < kHalfNodes; ++i) {
      for (int k = 0; k < kExtraPerNode;) {
        if (add(base + i, base + rng->Uniform(kHalfNodes))) ++k;
      }
    }
  }
  for (int k = 0; k < kCrossEdges;) {
    if (add(rng->Uniform(kHalfNodes), kHalfNodes + rng->Uniform(kHalfNodes))) ++k;
  }
  return g;
}

/// The maintained base: a double ring (i -> i+1 and i -> i+2), plus the
/// fresh source nodes the batches attach (no edges yet).
struct Maintained {
  Graph ring;
  int single_source = -1;               // local index of the toggled source
  std::vector<std::pair<int, int>> bulk_edges;
  std::vector<std::pair<int, int>> dred_edges;  // skip edges to retract
  std::vector<int> single_targets;      // per single-fact insert
};

Maintained MakeMaintained(Rng* rng) {
  Maintained m;
  const std::vector<int> perm = rng->Permutation(kRingNodes);
  for (int i = 0; i < kRingNodes; ++i) m.ring.AddNode(300000 + perm[static_cast<size_t>(i)]);
  for (int i = 0; i < kRingNodes; ++i) {
    m.ring.edges.push_back({i, (i + 1) % kRingNodes});
    m.ring.edges.push_back({i, (i + 2) % kRingNodes});
  }
  const std::vector<int> skips = rng->Permutation(kRingNodes);
  for (int k = 0; k < kDredEdges; ++k) {
    const int i = skips[static_cast<size_t>(k)];
    m.dred_edges.push_back({i, (i + 2) % kRingNodes});
  }
  for (int k = 0; k < kBulkEdges; ++k) {
    m.bulk_edges.push_back({m.ring.AddNode(400000 + k), rng->Uniform(kRingNodes)});
  }
  m.single_source = m.ring.AddNode(500000);
  for (int k = 0; k < kSinglesPerRound / 3; ++k) {
    m.single_targets.push_back(rng->Uniform(kRingNodes));
  }
  return m;
}

std::vector<FactUpdate> Batch(PredId pred, const Closure& c,
                              const std::vector<std::pair<int, int>>& edges,
                              bool insert) {
  std::vector<FactUpdate> out;
  for (const auto& [a, b] : edges) {
    out.push_back(FactUpdate{pred, {c.ValueOf(a), c.ValueOf(b)}, insert});
  }
  return out;
}

/// Checks an edge relation and its closure relation against the oracle.
void CheckTc(const Instance& model, PredId edge, PredId tc, const Closure& c,
             const std::string& what, Run* run) {
  std::string why;
  if (!PairsEqual(model.Rel(edge), c, c.edge_count(),
                  [&](int a, int b) { return c.Edge(a, b); }, &why)) {
    run->Fail(what + ": edge relation " + why);
  }
  if (!PairsEqual(model.Rel(tc), c, c.size(),
                  [&](int a, int b) { return c.Reach(a, b); }, &why)) {
    run->Fail(what + ": closure " + why);
  }
}

/// The maintained model: d = the edges, m = their closure, far = the
/// edges (a, b) with no path back from b to a.
void CheckMaintained(const Instance& model, const Engine& engine,
                     const Closure& c, const std::string& what, Run* run) {
  const datalog::Catalog& cat = engine.catalog();
  CheckTc(model, cat.Find("d"), cat.Find("m"), c, what, run);
  size_t count = 0;
  for (int a = 0; a < c.n(); ++a) {
    for (int b = 0; b < c.n(); ++b) {
      if (c.Edge(a, b) && !c.Reach(b, a)) ++count;
    }
  }
  std::string why;
  if (!PairsEqual(model.Rel(cat.Find("far")), c, count,
                  [&](int a, int b) { return c.Edge(a, b) && !c.Reach(b, a); },
                  &why)) {
    run->Fail(what + ": far " + why);
  }
}

/// The stratified-negation model: node = active domain, reach = closure,
/// unreach = its complement over the active domain.
void CheckNegation(const Instance& model, const Engine& engine,
                   const Closure& c, const std::string& what, Run* run) {
  const datalog::Catalog& cat = engine.catalog();
  CheckTc(model, cat.Find("g"), cat.Find("reach"), c, what, run);
  const Relation& node = model.Rel(cat.Find("node"));
  bool node_ok = node.size() == static_cast<size_t>(c.active_count());
  for (const datalog::Tuple& t : node) {
    const int a = t.size() == 1 ? c.Local(t[0]) : -1;
    node_ok = node_ok && a >= 0 && c.Active(a);
  }
  if (!node_ok) run->Fail(what + ": node is not the active domain");
  const size_t active = static_cast<size_t>(c.active_count());
  size_t reach_active = 0;
  for (int a = 0; a < c.n(); ++a) {
    for (int b = 0; b < c.n(); ++b) {
      if (c.Active(a) && c.Active(b) && c.Reach(a, b)) ++reach_active;
    }
  }
  std::string why;
  if (!PairsEqual(model.Rel(cat.Find("unreach")), c,
                  active * active - reach_active,
                  [&](int a, int b) {
                    return c.Active(a) && c.Active(b) && !c.Reach(a, b);
                  },
                  &why)) {
    run->Fail(what + ": unreach is not the complement of reach: " + why);
  }
}

struct EvalTotals {
  EvalStats first;  // deterministic counters of the first hash round
  double busy_ms = 0;
  int64_t steals = 0;
  double worker_ms = 0;  // wall x workers
};

}  // namespace

void RunMaterialize(Run* run) {
  const Config& cfg = run->config();
  Rng rng(cfg.seed);
  const Graph chain = Chain(&rng);
  const Graph halves = TwoHalves(&rng);
  Maintained mt = MakeMaintained(&rng);

  Engine engine;
  double parse_us = 0;
  auto parse = [&](const char* text) {
    const Clock::time_point t0 = Clock::now();
    datalog::Result<Program> p = engine.Parse(text);
    parse_us += MicrosSince(t0);
    run->Count("parse", p.ok());
    if (!p.ok()) run->Fail("parse: " + p.status().message());
    return p.ok() ? std::move(p).value() : Program();
  };
  const Program chain_p = parse(kChainProgram);
  const Program random_p = parse(kRandomProgram);
  const Program negation_p = parse(kNegationProgram);
  const Program maintain_p = parse(kMaintainProgram);
  run->Sample("call:Engine::Parse", parse_us);

  auto load = [&](const std::string& facts, Instance* db) {
    const Clock::time_point t0 = Clock::now();
    const datalog::Status st = engine.AddFacts(facts, db);
    run->Sample("call:Engine::AddFacts", MicrosSince(t0));
    run->Count("load", st.ok());
    if (!st.ok()) run->Fail("load: " + st.message());
  };
  Instance chain_db = engine.NewInstance();
  Instance halves_db = engine.NewInstance();
  Instance ring_db = engine.NewInstance();
  load(chain.Facts("c"), &chain_db);
  load(halves.Facts("g"), &halves_db);
  load(mt.ring.Facts("d"), &ring_db);
  // Fresh sources are named only by updates; intern them up front so the
  // oracle can name their values.
  for (const int64_t name : mt.ring.names) engine.symbols().InternInt(name);

  engine.options().num_threads = 0;
  datalog::Result<std::unique_ptr<IncrementalView>> created =
      IncrementalView::Create(maintain_p, engine.catalog(), ring_db,
                              engine.options());
  run->Count("view_create", created.ok());
  if (!created.ok()) {
    run->Fail("IncrementalView::Create: " + created.status().message());
    return;
  }
  IncrementalView& view = **created;

  // -- Oracle (outside every timer but setup_s) --------------------------
  const datalog::Catalog& cat = engine.catalog();
  const PredId c_pred = cat.Find("c"), tc_pred = cat.Find("tc");
  const PredId g_pred = cat.Find("g"), tr_pred = cat.Find("tr");
  const PredId d_pred = cat.Find("d");
  const Closure chain_c(chain, engine.symbols());
  const Closure halves_c(halves, engine.symbols());
  const Closure ring_c(mt.ring, engine.symbols());
  Graph bulk_g = mt.ring;
  bulk_g.edges.insert(bulk_g.edges.end(), mt.bulk_edges.begin(),
                      mt.bulk_edges.end());
  const Closure bulk_c(bulk_g, engine.symbols());
  Graph dred_g = mt.ring;
  std::erase_if(dred_g.edges, [&](const std::pair<int, int>& e) {
    for (const auto& d : mt.dred_edges) {
      if (d == e) return true;
    }
    return false;
  });
  const Closure dred_c(dred_g, engine.symbols());
  CheckMaintained(view.model(), engine, ring_c, "initial view", run);

  const std::vector<FactUpdate> bulk_insert =
      Batch(d_pred, ring_c, mt.bulk_edges, true);
  const std::vector<FactUpdate> bulk_retract =
      Batch(d_pred, ring_c, mt.bulk_edges, false);
  const std::vector<FactUpdate> dred_retract =
      Batch(d_pred, ring_c, mt.dred_edges, false);
  const std::vector<FactUpdate> dred_insert =
      Batch(d_pred, ring_c, mt.dred_edges, true);

  // -- Timed rounds -------------------------------------------------------
  datalog::obs::Tracer& tracer = datalog::obs::Tracer::Get();
  std::map<std::string, std::vector<double>> spans;
  int64_t dropped = 0;
  std::vector<double> hash_s, columnar_s, bulk_s, single_ms;
  // Per timed call of the job (six evaluations, four bulk batches): its
  // seconds in each round.
  std::map<std::string, std::vector<double>> job_part_s;
  std::vector<double> single_p50;   // per round: median batch latency
  std::vector<double> single_rate;  // per round: batches / their latency
  std::map<std::string, std::vector<double>> bulk_ms;  // per class
  std::vector<double> scratch_ms;
  EvalTotals totals;
  IncrementalView::Stats first_round_before{}, first_round_after{};
  Clock::time_point loop_start = Clock::now();
  int round = 0;  // warm-up rounds included
  int timed_rounds = 0;
  while (round <= kWarmupRounds || SecondsSince(loop_start) < cfg.seconds) {
    const bool timed = round >= kWarmupRounds;
    if (cfg.trace && timed) tracer.Enable();
    // 1. The suite, from scratch, on both backends.
    std::string hash_bytes[3];
    double backend_s[2] = {0, 0};
    for (int backend = 0; backend < 2; ++backend) {
      engine.options().storage =
          backend == 0 ? StorageBackend::kHash : StorageBackend::kColumnar;
      const std::string label = backend == 0 ? "hash" : "columnar";
      Instance models[3] = {engine.NewInstance(), engine.NewInstance(),
                            engine.NewInstance()};
      for (int p = 0; p < 3; ++p) {
        const Clock::time_point t0 = Clock::now();
        datalog::Result<Instance> r =
            p == 0   ? engine.MinimumModel(chain_p, chain_db)
            : p == 1 ? engine.MinimumModel(random_p, halves_db)
                     : engine.Stratified(negation_p, halves_db);
        const double us = MicrosSince(t0);
        backend_s[backend] += us / 1e6;
        const char* names[3] = {"tc_chain", "tc_random", "negation"};
        if (timed) {
          const std::string call = names[p] + ("/" + label);
          run->Sample("call:" + std::string(p < 2 ? "Engine::MinimumModel/"
                                                  : "Engine::Stratified/") +
                          call,
                      us);
          job_part_s[call].push_back(us / 1e6);
        }
        run->Count("eval", r.ok());
        if (!r.ok()) {
          run->Fail("eval " + label + ": " + r.status().message());
          continue;
        }
        models[p] = std::move(r).value();
        const EvalStats& st = engine.LastRunStats();
        if (backend == 0) {
          if (round == 0) totals.first.MergeFrom(st);
          if (timed) {
            for (const EvalStats::WorkerActivity& w : st.per_worker) {
              totals.busy_ms += w.busy_ms;
              totals.steals += w.steals;
            }
            totals.worker_ms +=
                st.total_ms * static_cast<double>(st.per_worker.size());
          }
        } else if (round == 0) {
          totals.first.storage_compactions += st.storage_compactions;
        }
      }
      CheckTc(models[0], c_pred, tc_pred, chain_c, "tc_chain/" + label, run);
      CheckTc(models[1], g_pred, tr_pred, halves_c, "tc_random/" + label, run);
      CheckNegation(models[2], engine, halves_c, "negation/" + label, run);
      for (int p = 0; p < 3; ++p) {
        std::string bytes = models[p].SerializeSnapshot();
        if (backend == 0) {
          hash_bytes[p] = std::move(bytes);
        } else if (bytes != hash_bytes[p]) {
          run->Fail("hash and columnar models differ (program " +
                    std::to_string(p) + ")");
        }
      }
    }
    if (timed) {
      hash_s.push_back(backend_s[0]);
      columnar_s.push_back(backend_s[1]);
    }

    // 2. Bulk maintenance: each pair of batches restores the base bytes.
    if (round == 0) first_round_before = view.stats();
    const std::string before = view.model().SerializeSnapshot();
    double round_bulk_s = 0;
    struct Step {
      const char* name;
      const std::vector<FactUpdate>* batch;
      const Closure* expect;  // null: expect the pre-insert bytes
    };
    const Step steps[4] = {{"bulk_insert", &bulk_insert, &bulk_c},
                           {"bulk_retract", &bulk_retract, nullptr},
                           {"dred_retract", &dred_retract, &dred_c},
                           {"dred_insert", &dred_insert, nullptr}};
    for (const Step& step : steps) {
      const Clock::time_point t0 = Clock::now();
      const datalog::Status st = view.ApplyBatch(*step.batch);
      const double us = MicrosSince(t0);
      round_bulk_s += us / 1e6;
      if (timed) {
        bulk_ms[step.name].push_back(us / 1000.0);
        job_part_s[step.name].push_back(us / 1e6);
        run->Sample(
            std::string("call:IncrementalView::ApplyBatch/") + step.name, us);
      }
      run->Count("maintain_bulk", st.ok());
      if (!st.ok()) run->Fail(std::string(step.name) + ": " + st.message());
      if (step.expect != nullptr) {
        CheckMaintained(view.model(), engine, *step.expect, step.name, run);
      } else if (view.model().SerializeSnapshot() != before) {
        run->Fail(std::string(step.name) +
                  ": insert then retract did not restore the model bytes");
      }
      if (cfg.trace) {
        // The from-scratch reference on the same updated base.
        const Clock::time_point s0 = Clock::now();
        datalog::Result<Instance> scratch =
            engine.Stratified(maintain_p, view.base());
        if (timed) scratch_ms.push_back(MicrosSince(s0) / 1000.0);
        if (!scratch.ok() || !(scratch.value() == view.model())) {
          run->Fail(std::string(step.name) +
                    ": maintained model differs from Stratified");
        }
      }
    }
    if (round == 0) first_round_after = view.stats();
    if (timed) bulk_s.push_back(round_bulk_s);

    // 3. Single-fact batches, in threes: insert one fresh-source edge,
    // retract it, re-insert a ring edge that is already there (a no-op).
    // Three kinds of equal count keep the median inside one kind.
    std::vector<double> round_single;
    for (int i = 0; i < kSinglesPerRound; ++i) {
      const int kind = i % 3;
      const int target = mt.single_targets[static_cast<size_t>(i / 3)];
      const std::pair<int, int> edge =
          kind == 2 ? mt.ring.edges[static_cast<size_t>(target)]
                    : std::pair<int, int>{mt.single_source, target};
      const std::vector<FactUpdate> batch =
          Batch(d_pred, ring_c, {edge}, kind != 1);
      const Clock::time_point t0 = Clock::now();
      const datalog::Status st = view.ApplyBatch(batch);
      const double us = MicrosSince(t0);
      round_single.push_back(us / 1000.0);
      if (timed) run->Sample("call:IncrementalView::ApplyBatch/single", us);
      run->Count("maintain_single", st.ok());
      if (!st.ok()) run->Fail("single-fact batch: " + st.message());
      Graph now = mt.ring;
      if (kind == 0) now.edges.push_back(edge);
      CheckMaintained(view.model(), engine, Closure(now, engine.symbols()),
                      "single-fact batch", run);
    }
    if (cfg.trace && timed) MergeSpans(DrainSpans(&dropped), &spans);
    if (timed) {
      single_ms.insert(single_ms.end(), round_single.begin(),
                       round_single.end());
      single_p50.push_back(Median(round_single));
      single_rate.push_back(kSinglesPerRound / (Sum(round_single) / 1000.0));
      ++timed_rounds;
    }
    std::printf("%s %d eval_hash_s=%.4f eval_columnar_s=%.4f "
                "maintain_bulk_s=%.4f maintain_single_p50_ms=%.4f\n",
                timed ? "round" : "warmup", round, backend_s[0], backend_s[1],
                round_bulk_s, Median(round_single));
    ++round;
    if (round == kWarmupRounds) {
      run->Metric("setup_s", SecondsSince(cfg.process_start), "s");
      loop_start = Clock::now();
    }
  }

  // -- End-to-end metrics --------------------------------------------------
  run->Metric("peak_rss_mb", PeakRssMb(), "MB");
  run->Metric("commit_p50_ms", CalmTime(single_p50), "ms");
  run->Metric("commit_p99_ms", Percentile(single_ms, 0.99), "ms");
  run->Metric("commits_per_s", CalmRate(single_rate), "1/s");
  run->Metric("op_p50_ms", CalmTime(single_p50), "ms");
  run->Metric("op_p99_ms", Percentile(single_ms, 0.99), "ms");
  run->Metric("ops_per_s", CalmRate(single_rate), "1/s");
  // The job at calm speed: each part's calm time, summed, so a host phase
  // that covers only part of a round does not spoil the whole round.
  double job_s = 0;
  for (const auto& [call, secs] : job_part_s) job_s += CalmTime(secs);
  run->Metric("job_s", job_s, "s");
  std::printf("samples rounds=%d warmup_rounds=%d single_fact_batches=%zu\n",
              timed_rounds, kWarmupRounds, single_ms.size());

  // -- Per-layer metrics ----------------------------------------------------
  const EvalStats& f = totals.first;
  run->Layer("parse_ms", parse_us / 1000.0, "ms");
  run->Layer("eval.hash_s", Median(hash_s), "s");
  run->Layer("eval.columnar_s", Median(columnar_s), "s");
  run->Layer("eval.rounds", f.rounds, "count");
  run->Layer("eval.instantiations", static_cast<double>(f.instantiations),
             "count");
  run->Layer("eval.facts_derived", static_cast<double>(f.facts_derived),
             "count");
  run->Layer("eval.dedup_ratio",
             f.instantiations > 0 ? static_cast<double>(f.facts_derived) /
                                        static_cast<double>(f.instantiations)
                                  : 0,
             "ratio");
  run->Layer("index.builds", static_cast<double>(f.index_builds), "count");
  run->Layer("index.rebuilds", static_cast<double>(f.index_rebuilds), "count");
  run->Layer("index.appended", static_cast<double>(f.index_appended), "count");
  run->Layer("storage.compactions", static_cast<double>(f.storage_compactions),
             "count");
  run->Layer("pool.busy_ms",
             totals.busy_ms / static_cast<double>(timed_rounds), "ms");
  run->Layer("pool.steals",
             static_cast<double>(totals.steals) /
                 static_cast<double>(timed_rounds),
             "count");
  run->Layer("pool.utilization",
             totals.worker_ms > 0 ? totals.busy_ms / totals.worker_ms : 0,
             "ratio");
  run->Layer("maintain.bulk_s", Median(bulk_s), "s");
  for (const auto& [name, ms] : bulk_ms) {
    run->Layer("maintain." + name + "_ms", Median(ms), "ms");
  }
  run->Layer("maintain.single_ms", Median(single_ms), "ms");
  if (cfg.trace) run->Layer("maintain.scratch_ms", Median(scratch_ms), "ms");
  const int64_t overdeleted =
      first_round_after.overdeleted - first_round_before.overdeleted;
  const int64_t rederived =
      (first_round_after.rederived_base + first_round_after.rederived_provenance +
       first_round_after.rederived_query) -
      (first_round_before.rederived_base +
       first_round_before.rederived_provenance +
       first_round_before.rederived_query);
  run->Layer("maintain.overdeleted", static_cast<double>(overdeleted), "count");
  run->Layer("maintain.rederived", static_cast<double>(rederived), "count");
  run->Layer("maintain.recounted",
             static_cast<double>(first_round_after.recounted -
                                 first_round_before.recounted),
             "count");
  run->Layer("maintain.rederive_ratio",
             overdeleted > 0 ? static_cast<double>(rederived) /
                                   static_cast<double>(overdeleted)
                             : 0,
             "ratio");
  if (cfg.trace) {
    run->Layer("incremental.batch_us",
               Median(spans["span:incremental.batch"]), "us");
    run->Layer("trace.dropped", static_cast<double>(dropped), "count");
    for (const auto& [name, s] : spans) {
      for (double us : s) run->Sample(name, us);
    }
  }
}

void CheckModelWithDroppedFact(Run* run) {
  Rng rng(run->config().seed);
  const Graph chain = Chain(&rng);
  Engine engine;
  datalog::Result<Program> p = engine.Parse(kChainProgram);
  Instance db = engine.NewInstance();
  if (!p.ok() || !engine.AddFacts(chain.Facts("c"), &db).ok()) {
    run->Fail("set-up");
    return;
  }
  datalog::Result<Instance> model = engine.MinimumModel(*p, db);
  if (!model.ok()) {
    run->Fail("eval");
    return;
  }
  const PredId tc = engine.catalog().Find("tc");
  const datalog::Tuple victim = *model->Rel(tc).begin();
  model->Erase(tc, victim);
  CheckTc(*model, engine.catalog().Find("c"), tc,
          Closure(chain, engine.symbols()), "dropped fact", run);
}

}  // namespace perfbench
