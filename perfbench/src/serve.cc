// The `serve_mixed` and `serve_durable` workloads (README.md): a threaded
// Server behind a localhost SocketListener, driven over the wire protocol
// by closed-loop client sessions in this process, each waiting for its
// reply before sending the next request.
//
//   serve_mixed    in-memory server over a TC model of a ring (tens of
//                  thousands of facts). One writer session toggles one
//                  edge and reads its own write back; two reader sessions
//                  cycle kQuery(e) (small), kQuery(t) (large) and
//                  kSnapshotQuery. The job is an in-memory restart.
//   serve_durable  durable server, fsync per commit (sync_every=1) and a
//                  snapshot every kSnapshotEvery commits. Three writer
//                  sessions toggle two private edges per commit. The job
//                  is recovery of the directory after a clean shutdown.
//
// Every read is compared with bytes the benchmark encodes from its own
// BFS closure of the edge set the response's epoch implies.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fcntl.h>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/engine.h"
#include "dist/transport.h"
#include "obs/trace.h"
#include "server/server.h"
#include "server/wire.h"
#include "store/recover.h"
#include "store/snapshotter.h"
#include "store/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using datalog::ByteChannel;
using datalog::Engine;
using datalog::Instance;
using datalog::PredId;
using datalog::Program;
using datalog::StatusCode;
using datalog::server::Request;
using datalog::server::Response;
using datalog::server::Server;
using datalog::server::ServerOptions;
using Kind = datalog::server::Request::Kind;

constexpr int kMixedRing = 128;     // t has kMixedRing^2 facts
constexpr int kDurableRing = 48;
constexpr int kDurableWriters = 3;
constexpr int kSnapshotEvery = 32;
// The timed phase runs in kCycles server incarnations; between two, the
// server is restarted (serve_mixed) or recovered (serve_durable)
// kRestarts times, so the job is sampled across the whole run.
constexpr int kCycles = 20;
constexpr int kRestarts = 3;
constexpr int kProbeRecoveries = 5;  // per recovery stage, traced runs
// Set-up ends with an untimed warm-up of fixed work on the first server
// incarnation, so every run's set-up does the same work.
constexpr int kMixedWarmupCommits = 64;     // the writer's, with its reads
constexpr int kMixedWarmupReadRounds = 300;  // per reader
constexpr int kDurableWarmupCommits = 320;  // per writer
constexpr int kProbeCalls = 200;     // per probed call, traced runs
// Latencies and rates are taken per window of an incarnation's timed
// phase, and the run reports the calm window (harness.h, CalmTime).
constexpr auto kWindow = std::chrono::milliseconds(250);

const char kProgram[] =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Z) :- t(X, Y), e(Y, Z).\n";

Request MakeRequest(Kind kind, std::string text) {
  Request r;
  r.kind = kind;
  r.text = std::move(text);
  return r;
}

/// One client session: a socket connection speaking the wire protocol.
class Client {
 public:
  bool Connect(int port) {
    datalog::Result<std::unique_ptr<ByteChannel>> ch =
        datalog::SocketConnect(port);
    if (!ch.ok()) return false;
    channel_ = std::move(ch).value();
    return true;
  }
  bool Call(const Request& request, Response* response) {
    std::string payload;
    return datalog::server::WriteFrame(channel_.get(),
                                       datalog::server::EncodeRequest(request)) &&
           datalog::server::ReadFrame(channel_.get(), &payload) &&
           datalog::server::DecodeResponse(payload, response);
  }
  void Close() {
    if (channel_ == nullptr) return;
    Request close;
    close.kind = Kind::kClose;
    datalog::server::WriteFrame(channel_.get(),
                                datalog::server::EncodeRequest(close));
    channel_->Close();
    channel_.reset();
  }
  ~Client() { Close(); }
  ByteChannel* channel() { return channel_.get(); }

 private:
  std::unique_ptr<ByteChannel> channel_;
};

/// A ring 0 -> 1 -> ... -> n-1 -> 0 over seeded labels, plus fresh source
/// nodes (no edges) that updates attach.
Graph Ring(int n, int fresh, int64_t offset, Rng* rng) {
  Graph g;
  const std::vector<int> perm = rng->Permutation(n);
  for (int i = 0; i < n; ++i) g.AddNode(offset + perm[static_cast<size_t>(i)]);
  for (int i = 0; i < n; ++i) g.edges.push_back({i, (i + 1) % n});
  for (int k = 0; k < fresh; ++k) g.AddNode(offset + 100000 + k);
  return g;
}

/// Program, base facts and the serving stack of one run: the current
/// server incarnation, its listener and the client sessions' connections.
struct Stack {
  Engine engine;
  Program program;
  Instance base{nullptr};
  std::unique_ptr<Server> server;
  std::unique_ptr<datalog::SocketListener> listener;
  std::thread accept;
  std::vector<std::unique_ptr<Client>> clients;

  /// Parses the program and loads `g` as the base facts.
  bool Load(const Graph& g, Run* run) {
    const Clock::time_point t0 = Clock::now();
    datalog::Result<Program> p = engine.Parse(kProgram);
    const double parse_us = MicrosSince(t0);
    run->Sample("call:Engine::Parse", parse_us);
    run->Layer("parse_ms", parse_us / 1000.0, "ms");
    run->Count("parse", p.ok());
    if (!p.ok()) {
      run->Fail("parse: " + p.status().message());
      return false;
    }
    program = std::move(p).value();
    base = engine.NewInstance();
    const datalog::Status st = engine.AddFacts(g.Facts("e"), &base);
    run->Count("load", st.ok());
    if (!st.ok()) {
      run->Fail("load: " + st.message());
      return false;
    }
    // Fresh nodes are named only by updates; intern them up front so the
    // oracle can name their values.
    for (const int64_t name : g.names) engine.symbols().InternInt(name);
    return true;
  }

  /// Server::Create over `state` until the first epoch is served
  /// (recovery first, for a durable server). Returns the seconds taken,
  /// or -1 when the server could not be created.
  double Create(const Instance& state, const ServerOptions& options,
                const char* op, Run* run) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    datalog::Result<std::unique_ptr<Server>> s = Server::Create(
        program, &engine.catalog(), &engine.symbols(), state, options);
    const bool ok =
        s.ok() && (*s)->ServeQuery(MakeRequest(Kind::kPing, "")).status ==
                      StatusCode::kOk;
    const double secs = SecondsSince(t0);
    run->Sample(std::string("call:Server::Create/") + op, secs * 1e6);
    run->Count(op, ok);
    if (!ok) {
      run->Fail(std::string(op) + ": " +
                (s.ok() ? "no epoch served" : s.status().message()));
      return -1;
    }
    server = std::move(s).value();
    return secs;
  }

  /// Starts the server's threads, listens on a localhost port and
  /// connects `sessions` clients.
  bool Open(int sessions, Run* run) {
    server->Start();
    datalog::Result<std::unique_ptr<datalog::SocketListener>> l =
        datalog::SocketListener::Listen(0);
    run->Count("listen", l.ok());
    if (!l.ok()) {
      run->Fail("listen: " + l.status().message());
      return false;
    }
    listener = std::move(l).value();
    accept = std::thread([this] { server->ServeListener(listener.get()); });
    for (int i = 0; i < sessions; ++i) {
      clients.push_back(std::make_unique<Client>());
      const bool ok = clients.back()->Connect(listener->port());
      run->Count("connect", ok);
      if (!ok) {
        run->Fail("connect");
        return false;
      }
    }
    return true;
  }

  /// Closes the sessions and the listener, joins the accept loop and
  /// stops the server (which joins every connection pump). The stopped
  /// server stays for inspection.
  void Close() {
    clients.clear();
    if (listener != nullptr) listener->Close();
    if (accept.joinable()) accept.join();
    listener.reset();
    if (server != nullptr) server->Stop();
  }
  ~Stack() { Close(); }
};

/// Expected bytes of one edge-set state: kQuery(e), kQuery(t) and
/// kSnapshotQuery, encoded from the oracle's closure.
struct Expected {
  std::string e, t, full;
};

Expected Expect(const Graph& g, const Engine& engine) {
  const Closure c(g, engine.symbols());
  const PredId e = engine.catalog().Find("e");
  const PredId t = engine.catalog().Find("t");
  Expected out;
  SnapshotEncoder only_e, only_t, full;
  only_e.Add(e, EdgePairs(g, c));
  only_t.Add(t, ClosurePairs(c));
  full.Add(e, EdgePairs(g, c));
  full.Add(t, ClosurePairs(c));
  out.e = only_e.Bytes();
  out.t = only_t.Bytes();
  out.full = full.Bytes();
  return out;
}

/// Latency samples of one session, in milliseconds.
struct Session {
  explicit Session(const Config& config) : run(config) {}
  Run run;  // counts, failures and samples of this session's thread
  std::vector<double> commit_ms, read_ms;
  std::vector<Clock::time_point> commit_at, read_at;  // each sample's send
  // kSnapshotQuery reads (serve_mixed's job): send time, latency in ms.
  std::vector<std::pair<Clock::time_point, double>> snapshot_reads;
  std::vector<std::pair<int64_t, std::string>> query_epochs;  // kQuery
  int64_t read_bytes = 0;
  int64_t acks = 0;
  int64_t restarts = 0;  // server incarnations this session has outlived
};

/// Probes the public calls of a scheduler-driven server (no threads) on
/// `state`: SubmitUpdate, ApplyOneQueued and ServeQuery per kind, then the
/// wire codecs and a frame round trip at the snapshot size. Traced runs
/// only; the measured server is already stopped.
void ProbeCalls(Stack* stack, const Instance& state,
                const ServerOptions& options, const std::string& insert,
                const std::string& retract, Run* run) {
  datalog::Result<std::unique_ptr<Server>> created =
      Server::Create(stack->program, &stack->engine.catalog(),
                     &stack->engine.symbols(), state, options);
  run->Count("probe", created.ok());
  if (!created.ok()) {
    run->Fail("probe Server::Create: " + created.status().message());
    return;
  }
  Server& srv = **created;
  std::vector<double> submit_us, apply_us;
  for (int i = 0; i < kProbeCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    datalog::Result<int64_t> ticket =
        srv.SubmitUpdate(i % 2 == 0 ? insert : retract);
    submit_us.push_back(MicrosSince(t0));
    const Clock::time_point t1 = Clock::now();
    const bool applied = ticket.ok() && srv.ApplyOneQueued();
    apply_us.push_back(MicrosSince(t1));
    Response outcome;
    const bool ok = applied && srv.UpdateOutcome(*ticket, &outcome) &&
                    outcome.status == StatusCode::kOk;
    run->Count("probe", ok);
    if (!ok) run->Fail("probe commit refused");
  }
  for (double us : submit_us) run->Sample("call:Server::SubmitUpdate", us);
  for (double us : apply_us) run->Sample("call:Server::ApplyOneQueued", us);
  run->Layer("session.parse_us", Median(submit_us), "us");
  run->Layer("apply_us", Median(apply_us), "us");

  struct Probe {
    const char* layer;
    Request request;
  };
  const Probe probes[3] = {
      {"query.small_us", MakeRequest(Kind::kQuery, "e")},
      {"query.large_us", MakeRequest(Kind::kQuery, "t")},
      {"query.snapshot_us", MakeRequest(Kind::kSnapshotQuery, "")}};
  Response snapshot;
  for (const Probe& p : probes) {
    std::vector<double> us;
    for (int i = 0; i < kProbeCalls; ++i) {
      const Clock::time_point t0 = Clock::now();
      Response r = srv.ServeQuery(p.request);
      us.push_back(MicrosSince(t0));
      run->Count("probe", r.status == StatusCode::kOk);
      if (p.request.kind == Kind::kSnapshotQuery) snapshot = std::move(r);
    }
    for (double x : us) run->Sample(std::string("call:Server::ServeQuery/") + p.layer, x);
    run->Layer(p.layer, Median(us), "us");
  }

  std::vector<double> encode_us, decode_us, rtt_us;
  std::string payload;
  for (int i = 0; i < kProbeCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    payload = datalog::server::EncodeResponse(snapshot);
    encode_us.push_back(MicrosSince(t0));
    Response decoded;
    const Clock::time_point t1 = Clock::now();
    const bool ok = datalog::server::DecodeResponse(payload, &decoded);
    decode_us.push_back(MicrosSince(t1));
    run->Count("probe", ok && decoded.body == snapshot.body);
  }
  // Frame round trip at the snapshot size over a localhost socket: the
  // echo side reads one frame and writes it back.
  datalog::Result<std::unique_ptr<datalog::SocketListener>> listener =
      datalog::SocketListener::Listen(0);
  Client client;
  if (listener.ok() && client.Connect((*listener)->port())) {
    std::unique_ptr<ByteChannel> echo_side = (*listener)->Accept();
    std::thread echo([&echo_side] {
      std::string frame;
      while (echo_side != nullptr &&
             datalog::server::ReadFrame(echo_side.get(), &frame) &&
             datalog::server::WriteFrame(echo_side.get(), frame)) {
      }
    });
    ByteChannel* ch = client.channel();
    std::string back;
    for (int i = 0; i < kProbeCalls; ++i) {
      const Clock::time_point t0 = Clock::now();
      const bool ok = datalog::server::WriteFrame(ch, payload) &&
                      datalog::server::ReadFrame(ch, &back);
      rtt_us.push_back(MicrosSince(t0));
      run->Count("probe", ok && back == payload);
    }
    client.Close();
    if (echo_side != nullptr) echo_side->Close();
    echo.join();
  } else {
    run->Count("probe", false);
    run->Fail("probe socket");
  }
  for (double x : encode_us) run->Sample("call:EncodeResponse/snapshot", x);
  for (double x : decode_us) run->Sample("call:DecodeResponse/snapshot", x);
  for (double x : rtt_us) run->Sample("call:WriteFrame+ReadFrame/snapshot", x);
  run->Layer("wire.encode_us", Median(encode_us), "us");
  run->Layer("wire.decode_us", Median(decode_us), "us");
  run->Layer("wire.frame_rtt_us", Median(rtt_us), "us");
  run->Layer("wire.snapshot_bytes", static_cast<double>(payload.size()), "B");
}

/// Waits for the session threads; in traced runs samples the number of
/// live snapshots meanwhile. Returns the largest sample.
int64_t JoinSessions(std::vector<std::thread>* threads,
                     const std::atomic<int>& running, const Server& server,
                     bool sample) {
  int64_t live_max = 0;
  while (sample && running.load() > 0) {
    live_max = std::max(live_max, server.snapshots().live());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : *threads) t.join();
  return live_max;
}

/// The server-side spans of the timed phase, as per-layer metrics.
void SpanLayers(const std::map<std::string, std::vector<double>>& spans,
                const std::vector<double>& commit_ms, Run* run) {
  auto median = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Median(it->second);
  };
  run->Layer("incremental.batch_us", median("span:incremental.batch"), "us");
  run->Layer("publish_us", median("span:server.publish"), "us");
  run->Layer("wal_append_us", median("span:server.wal_append"), "us");
  run->Layer("compact_us", median("span:server.compact"), "us");
  const double wait =
      Median(commit_ms) * 1000.0 - median("span:server.apply_batch");
  run->Layer("commit.wait_us", std::max(wait, 0.0), "us");
  for (const auto& [name, s] : spans) {
    for (double us : s) run->Sample(name, us);
  }
}

/// Quiescence of the snapshot registry after Stop: pins balance and only
/// the current snapshot is live.
void CheckQuiescent(const Server& server, Run* run) {
  const datalog::server::SnapshotRegistry& reg = server.snapshots();
  const datalog::server::SnapshotRegistry::Counters c = reg.counters();
  if (c.pins != c.unpins || reg.pinned() != 0 || reg.live() != 1 ||
      c.reclaimed != c.retired) {
    run->Fail("snapshot registry not quiescent: pins=" +
              std::to_string(c.pins) + " unpins=" + std::to_string(c.unpins) +
              " live=" + std::to_string(reg.live()));
  }
}

/// The timed phase of each incarnation: [start, end).
using Cycles = std::vector<std::pair<Clock::time_point, Clock::time_point>>;

/// Each timed phase cut into equal windows of about kWindow (at least
/// one); per window, over the samples sent in it: their median latency and
/// their rate (sends per second between the first and the last).
struct Windows {
  std::vector<double> p50_ms, per_s;
};

Windows ByWindow(std::vector<std::pair<Clock::time_point, double>> samples,
                 const Cycles& cycles) {
  std::sort(samples.begin(), samples.end());
  auto at = [&](Clock::time_point t) {
    return std::lower_bound(
        samples.begin(), samples.end(), t,
        [](const std::pair<Clock::time_point, double>& s,
           Clock::time_point x) { return s.first < x; });
  };
  Windows out;
  for (const auto& [start, end] : cycles) {
    const auto n = std::max<Clock::rep>(1, (end - start) / kWindow);
    const Clock::duration width = (end - start) / n;
    for (Clock::rep k = 0; k < n; ++k) {
      const auto lo = at(start + k * width), hi = at(start + (k + 1) * width);
      if (hi - lo < 2 || (hi - 1)->first == lo->first) continue;
      std::vector<double> ms;
      for (auto it = lo; it != hi; ++it) ms.push_back(it->second);
      out.p50_ms.push_back(Median(ms));
      out.per_s.push_back(
          static_cast<double>(hi - lo - 1) /
          std::chrono::duration<double>((hi - 1)->first - lo->first).count());
    }
  }
  return out;
}

/// The end-to-end metrics of a serve workload (the job and peak RSS
/// aside), plus the read-side figures as per-layer metrics.
void EndToEnd(Run* run, const std::vector<std::unique_ptr<Session>>& sessions,
              const Cycles& cycles, double setup_s) {
  std::vector<double> commits, ops, reads;
  std::vector<std::pair<Clock::time_point, double>> commit_at, op_at;
  for (const auto& s : sessions) {
    commits.insert(commits.end(), s->commit_ms.begin(), s->commit_ms.end());
    reads.insert(reads.end(), s->read_ms.begin(), s->read_ms.end());
    for (size_t i = 0; i < s->commit_ms.size(); ++i) {
      commit_at.push_back({s->commit_at[i], s->commit_ms[i]});
    }
    for (size_t i = 0; i < s->read_ms.size(); ++i) {
      op_at.push_back({s->read_at[i], s->read_ms[i]});
    }
  }
  ops = commits;
  ops.insert(ops.end(), reads.begin(), reads.end());
  op_at.insert(op_at.end(), commit_at.begin(), commit_at.end());
  const Windows commit_w = ByWindow(std::move(commit_at), cycles);
  const Windows op_w = ByWindow(std::move(op_at), cycles);
  double wall_s = 0;
  for (const auto& [start, end] : cycles) {
    wall_s += std::chrono::duration<double>(end - start).count();
  }
  run->Metric("setup_s", setup_s, "s");
  run->Metric("commit_p50_ms", CalmTime(commit_w.p50_ms), "ms");
  run->Metric("commit_p99_ms", Percentile(commits, 0.99), "ms");
  run->Metric("commits_per_s", CalmRate(commit_w.per_s), "1/s");
  run->Metric("op_p50_ms", CalmTime(op_w.p50_ms), "ms");
  run->Metric("op_p99_ms", Percentile(ops, 0.99), "ms");
  run->Metric("ops_per_s", CalmRate(op_w.per_s), "1/s");
  run->Layer("read_p50_ms", Median(reads), "ms");
  run->Layer("read_p99_ms", Percentile(reads, 0.99), "ms");
  run->Layer("reads_per_s", static_cast<double>(reads.size()) / wall_s, "1/s");
  std::printf("samples commits=%zu reads=%zu ops=%zu wall_s=%.3f cycles=%zu "
              "windows=%zu\n",
              commits.size(), reads.size(), ops.size(), wall_s, cycles.size(),
              commit_w.p50_ms.size());
}

}  // namespace

void RunServeMixed(Run* run) {
  const Config& cfg = run->config();
  Rng rng(cfg.seed);
  const Graph ring = Ring(kMixedRing, 1, 600000, &rng);
  const int fresh = kMixedRing;
  const int target = rng.Uniform(kMixedRing);

  Stack stack;
  ServerOptions options;
  options.num_readers = 2;
  if (!stack.Load(ring, run) ||
      stack.Create(stack.base, options, "server_create", run) < 0 ||
      !stack.Open(3, run)) {
    return;
  }

  // Oracle: the two states the toggled edge alternates between. Within
  // one server incarnation, epoch parity says which one a response shows.
  Graph present = ring;
  present.edges.push_back({fresh, target});
  const Expected expected[2] = {Expect(ring, stack.engine),
                                Expect(present, stack.engine)};
  const Closure present_c(present, stack.engine.symbols());
  const PredId e_pred = stack.engine.catalog().Find("e");
  const std::string insert = ring.Token("e", fresh, target, true);
  const std::string retract = ring.Token("e", fresh, target, false);

  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 3; ++i) sessions.push_back(std::make_unique<Session>(cfg));
  bool on = false;         // the toggled edge is present
  auto current_base = [&] {
    Instance state = stack.base;
    if (on) {
      state.Insert(e_pred, {present_c.ValueOf(fresh), present_c.ValueOf(target)});
    }
    return state;
  };
  int first_state = 0;     // state at epoch 0 of the current incarnation
  int64_t live_max = 0, dropped = 0, acks_here = 0;
  Cycles cycles;
  std::vector<double> restart_s;
  std::map<std::string, std::vector<double>> spans;

  auto read = [&](Client* client, Session* s, Kind kind, const char* pred,
                  const char* op, int64_t* last_epoch) {
    Response r;
    const Clock::time_point t0 = Clock::now();
    const bool ok = client->Call(MakeRequest(kind, pred), &r) &&
                    r.status == StatusCode::kOk;
    const double ms = MicrosSince(t0) / 1000.0;
    s->read_ms.push_back(ms);
    s->read_at.push_back(t0);
    if (kind == Kind::kSnapshotQuery) s->snapshot_reads.push_back({t0, ms});
    s->run.Count(op, ok);
    if (!ok) return;
    s->read_bytes += static_cast<int64_t>(r.body.size());
    if (r.epoch < *last_epoch) {
      s->run.Fail(std::string(op) + ": epoch went backwards");
    }
    *last_epoch = r.epoch;
    const Expected& want = expected[(r.epoch + first_state) & 1];
    const std::string& bytes = kind == Kind::kSnapshotQuery ? want.full
                               : pred[0] == 'e'              ? want.e
                                                             : want.t;
    if (r.body != bytes) {
      s->run.Fail(std::string(op) + ": bytes at epoch " +
                  std::to_string(r.epoch) + " differ from the BFS closure");
    }
    if (kind == Kind::kQuery) {
      s->query_epochs.push_back({r.epoch + 1000000 * s->restarts, pred});
    }
  };

  // Drives the three sessions on the current incarnation until `deadline`
  // or, when `commits` > 0, for `commits` writer commits and `read_rounds`
  // rounds per reader (the warm-up). Returns the most live snapshots seen.
  auto drive = [&](Clock::time_point deadline, int commits, int read_rounds) {
    auto more = [&](int done, int limit) {
      return commits > 0 ? done < limit : Clock::now() < deadline;
    };
    std::atomic<int> running{3};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // the writer session
      Session* s = sessions[0].get();
      Client* client = stack.clients[0].get();
      int64_t epoch = acks_here;
      for (int n = 0; more(n, commits); ++n) {
        Response r;
        const Clock::time_point t0 = Clock::now();
        const bool ok =
            client->Call(MakeRequest(Kind::kUpdate, on ? retract : insert),
                         &r) &&
            r.status == StatusCode::kOk;
        s->commit_ms.push_back(MicrosSince(t0) / 1000.0);
        s->commit_at.push_back(t0);
        s->run.Count("commit", ok);
        if (!ok) break;
        if (r.epoch != epoch + 1) s->run.Fail("commit epoch not consecutive");
        epoch = r.epoch;
        on = !on;
        ++acks_here;
        // Read your write: at least the acked epoch, with the edge.
        int64_t seen = epoch;
        read(client, s, Kind::kQuery, "e", "read_own_write", &seen);
      }
      running.fetch_sub(1);
    });
    for (int i = 1; i < 3; ++i) {
      threads.emplace_back([&, i] {  // reader sessions, whole rounds
        Session* s = sessions[static_cast<size_t>(i)].get();
        Client* client = stack.clients[static_cast<size_t>(i)].get();
        int64_t last = 0;
        for (int n = 0; more(n, read_rounds); ++n) {
          read(client, s, Kind::kQuery, "e", "read_query_small", &last);
          read(client, s, Kind::kQuery, "t", "read_query_large", &last);
          read(client, s, Kind::kSnapshotQuery, "", "read_snapshot", &last);
        }
        running.fetch_sub(1);
      });
    }
    return JoinSessions(&threads, running, *stack.server, cfg.trace);
  };

  // Warm-up: its samples are dropped; its operations are counted.
  live_max = drive(Clock::now(), kMixedWarmupCommits, kMixedWarmupReadRounds);
  for (auto& s : sessions) {
    s->commit_ms.clear();
    s->read_ms.clear();
    s->commit_at.clear();
    s->read_at.clear();
    s->snapshot_reads.clear();
    s->query_epochs.clear();
    s->read_bytes = 0;
  }
  const double setup_s = SecondsSince(cfg.process_start);
  const Clock::time_point start = Clock::now();

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (cycle > 0) {
      // Restart in memory from the current base, until epoch 0 serves.
      const Instance state = current_base();
      for (int k = 0; k < kRestarts; ++k) {
        const double secs = stack.Create(state, options, "restart", run);
        if (secs < 0) return;
        restart_s.push_back(secs);
        if (k == 0 &&
            stack.server->ServeQuery(MakeRequest(Kind::kSnapshotQuery, ""))
                    .body != expected[on ? 1 : 0].full) {
          run->Fail("restarted server serves bytes that differ from the "
                    "closure");
        }
      }
      if (!stack.Open(3, run)) return;
      first_state = on ? 1 : 0;
      acks_here = 0;
      for (auto& s : sessions) ++s->restarts;
    }
    if (cfg.trace) datalog::obs::Tracer::Get().Enable();
    const Clock::time_point cycle_start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds * (cycle + 1) /
                                                  kCycles));
    live_max = std::max(live_max, drive(deadline, 0, 0));
    cycles.push_back({cycle_start, Clock::now()});
    // Spans still open in server threads land after Disable; the rings
    // are read only once Close has joined those threads.
    datalog::obs::Tracer::Get().Disable();
    stack.Close();
    if (cfg.trace) MergeSpans(DrainSpans(&dropped), &spans);
    if (stack.server->epoch() != acks_here) {
      run->Fail("server epoch " + std::to_string(stack.server->epoch()) +
                " != acked commits " + std::to_string(acks_here));
    }
    CheckQuiescent(*stack.server, run);
  }

  int64_t read_count = 0, read_bytes = 0;
  std::set<std::pair<int64_t, std::string>> distinct;
  size_t query_reads = 0;
  std::vector<std::pair<Clock::time_point, double>> snapshot_reads;
  for (auto& s : sessions) {
    run->MergeCounts(s->run);
    snapshot_reads.insert(snapshot_reads.end(), s->snapshot_reads.begin(),
                          s->snapshot_reads.end());
    read_count += static_cast<int64_t>(s->read_ms.size());
    read_bytes += s->read_bytes;
    distinct.insert(s->query_epochs.begin(), s->query_epochs.end());
    query_reads += s->query_epochs.size();
  }
  EndToEnd(run, sessions, cycles, setup_s);
  // The job: fetching the whole model (kSnapshotQuery), calm over windows.
  run->Metric("job_s",
              CalmTime(ByWindow(std::move(snapshot_reads), cycles).p50_ms) /
                  1000.0,
              "s");
  run->Metric("peak_rss_mb", PeakRssMb(), "MB");
  run->Layer("read.bytes",
             read_count > 0 ? static_cast<double>(read_bytes) /
                                  static_cast<double>(read_count)
                            : 0,
             "B");
  run->Layer("read.pred_cache_fill_ratio",
             query_reads > 0 ? static_cast<double>(distinct.size()) /
                                   static_cast<double>(query_reads)
                             : 0,
             "ratio");
  run->Layer("snapshot.live_max", static_cast<double>(live_max), "count");
  run->Layer("server.commit_log_retained",
             static_cast<double>(stack.server->CommitLog().size()), "count");
  run->Layer("server.restart_ms", Median(restart_s) * 1000.0, "ms");
  if (cfg.trace) {
    run->Layer("trace.dropped", static_cast<double>(dropped), "count");
    SpanLayers(spans, sessions[0]->commit_ms, run);
    stack.server.reset();
    ProbeCalls(&stack, current_base(), options, insert, retract, run);
  }
}

void RunServeDurable(Run* run) {
  const Config& cfg = run->config();
  Rng rng(cfg.seed);
  const Graph ring = Ring(kDurableRing, kDurableWriters, 700000, &rng);
  // Writer w toggles the two edges fresh_w -> a_w and fresh_w -> b_w.
  std::vector<std::pair<int, int>> targets;
  for (int w = 0; w < kDurableWriters; ++w) {
    const int a = rng.Uniform(kDurableRing);
    targets.push_back({a, (a + 1 + rng.Uniform(kDurableRing - 1)) % kDurableRing});
  }
  auto tokens = [&](int w, bool insert) {
    const int f = kDurableRing + w;
    const auto& [a, b] = targets[static_cast<size_t>(w)];
    return ring.Token("e", f, a, insert) + " " + ring.Token("e", f, b, insert);
  };

  const std::string dir = cfg.scratch + "/store";
  RemoveTree(dir);
  Stack stack;
  ServerOptions options;
  options.num_readers = 1;
  options.durability.dir = dir;
  options.durability.sync_every = 1;
  options.durability.snapshot_every = kSnapshotEvery;
  if (!stack.Load(ring, run) ||
      stack.Create(stack.base, options, "server_create", run) < 0 ||
      !stack.Open(kDurableWriters, run)) {
    return;
  }

  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kDurableWriters; ++i) {
    sessions.push_back(std::make_unique<Session>(cfg));
  }
  std::vector<int64_t> last_epoch(kDurableWriters, 0);
  auto acks = [&] {
    int64_t n = 0;
    for (auto& s : sessions) n += s->acks;
    return n;
  };
  // The oracle's model: the ring plus every writer's edges its acks left on.
  auto expected = [&] {
    Graph g = ring;
    for (int w = 0; w < kDurableWriters; ++w) {
      if (sessions[static_cast<size_t>(w)]->acks % 2 == 1) {
        g.edges.push_back({kDurableRing + w, targets[static_cast<size_t>(w)].first});
        g.edges.push_back({kDurableRing + w, targets[static_cast<size_t>(w)].second});
      }
    }
    return Expect(g, stack.engine);
  };
  auto commit = [&](int w, const char* op) {
    Session* s = sessions[static_cast<size_t>(w)].get();
    Response r;
    const Clock::time_point t0 = Clock::now();
    const bool ok = stack.clients[static_cast<size_t>(w)]->Call(
                        MakeRequest(Kind::kUpdate, tokens(w, s->acks % 2 == 0)),
                        &r) &&
                    r.status == StatusCode::kOk;
    const double ms = MicrosSince(t0) / 1000.0;
    s->run.Count(op, ok);
    if (!ok) return false;
    if (std::string(op) == "commit") {
      s->commit_ms.push_back(ms);
      s->commit_at.push_back(t0);
    }
    int64_t& last = last_epoch[static_cast<size_t>(w)];
    if (r.epoch <= last) s->run.Fail("commit epochs not increasing");
    last = r.epoch;
    ++s->acks;
    return true;
  };
  // Recovers the directory: the server must serve the acked epoch and
  // the oracle's model.
  auto recover = [&](const char* op) {
    const double secs = stack.Create(stack.base, options, op, run);
    if (secs < 0) return secs;
    if (stack.server->epoch() != acks()) {
      run->Fail(std::string(op) + ": recovered epoch " +
                std::to_string(stack.server->epoch()) +
                " is not the acked commit count " + std::to_string(acks()));
    }
    if (stack.server->ServeQuery(MakeRequest(Kind::kSnapshotQuery, "")).body !=
        expected().full) {
      run->Fail(std::string(op) + ": recovered model differs from the BFS "
                "closure");
    }
    return secs;
  };

  int64_t live_max = 0, dropped = 0, appends = 0, syncs = 0, snapshots = 0;
  Cycles cycles;
  std::vector<double> recover_s;
  std::map<std::string, std::vector<double>> spans;
  // Warm-up on the first incarnation: untimed commits, counted apart.
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kDurableWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int n = 0; n < kDurableWarmupCommits && commit(w, "commit_warmup");
             ++n) {
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double setup_s = SecondsSince(cfg.process_start);
  const Clock::time_point start = Clock::now();
  int64_t acks_at_open = 0;  // acks when the current incarnation opened
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (cycle > 0) {
      for (int k = 0; k < kRestarts; ++k) {
        const double secs = recover("recover");
        if (secs < 0) return;
        recover_s.push_back(secs);
      }
      if (!stack.Open(kDurableWriters, run)) return;
      acks_at_open = acks();
    }
    if (cfg.trace) datalog::obs::Tracer::Get().Enable();
    const Clock::time_point cycle_start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds * (cycle + 1) /
                                                  kCycles));
    std::atomic<int> running{kDurableWriters};
    std::vector<std::thread> threads;
    for (int w = 0; w < kDurableWriters; ++w) {
      threads.emplace_back([&, w] {
        while (Clock::now() < deadline && commit(w, "commit")) {
        }
        running.fetch_sub(1);
      });
    }
    live_max = std::max(
        live_max, JoinSessions(&threads, running, *stack.server, cfg.trace));
    cycles.push_back({cycle_start, Clock::now()});
    datalog::obs::Tracer::Get().Disable();
    // Settle: one session commits until the WAL holds half a compaction
    // cycle (the store counts its cadence from its own start), so every
    // recovery replays the same number of records.
    while ((acks() - acks_at_open) % kSnapshotEvery != kSnapshotEvery / 2) {
      if (!commit(0, "commit_settle")) break;
    }
    stack.Close();
    if (cfg.trace) MergeSpans(DrainSpans(&dropped), &spans);
    Server& srv = *stack.server;
    if (srv.epoch() != acks()) {
      run->Fail("server epoch " + std::to_string(srv.epoch()) +
                " != acked commits " + std::to_string(acks()));
    }
    CheckQuiescent(srv, run);
    appends += srv.store()->wal().appends();
    syncs += srv.store()->wal().syncs();
    snapshots += srv.store()->snapshots();
    if (cycle + 1 == kCycles) {
      run->Layer("store.attempts_retained",
                 static_cast<double>(srv.store()->attempts().size()), "count");
      run->Layer("server.commit_log_retained",
                 static_cast<double>(srv.CommitLog().size()), "count");
    }
    stack.server.reset();  // clean shutdown: closes the fsync window
  }

  for (auto& s : sessions) run->MergeCounts(s->run);
  EndToEnd(run, sessions, cycles, setup_s);
  run->Metric("job_s", CalmTime(recover_s), "s");
  run->Metric("peak_rss_mb", PeakRssMb(), "MB");
  run->Layer("wal.appends", static_cast<double>(appends), "count");
  run->Layer("wal.syncs", static_cast<double>(syncs), "count");
  run->Layer("wal.syncs_per_commit",
             static_cast<double>(syncs) / static_cast<double>(acks()), "ratio");
  run->Layer("snapshots", static_cast<double>(snapshots), "count");
  datalog::Result<datalog::store::WalScan> scan =
      datalog::store::ScanWal(datalog::store::WalPath(dir));
  if (scan.ok() && !scan->records.empty()) {
    run->Layer("wal.bytes_per_commit",
               static_cast<double>(scan->file_size) /
                   static_cast<double>(scan->records.size()),
               "B");
  }

  // A torn record after the last one (an unacked append cut by a crash)
  // must be truncated away by recovery.
  {
    const int fd = ::open(datalog::store::WalPath(dir).c_str(),
                          O_WRONLY | O_APPEND);
    const unsigned char torn[12] = {0xe8, 0x03, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
    const bool wrote = fd >= 0 && ::write(fd, torn, sizeof(torn)) ==
                                      static_cast<ssize_t>(sizeof(torn));
    if (fd >= 0) ::close(fd);
    if (!wrote) run->Fail("cannot append the torn record");
    recover("recover_torn_tail");
    stack.server.reset();
    datalog::Result<datalog::store::WalScan> after =
        datalog::store::ScanWal(datalog::store::WalPath(dir));
    if (!after.ok() || !after->clean) {
      run->Fail("recovery left a torn WAL tail in place");
    }
  }

  if (cfg.trace) {
    run->Layer("trace.dropped", static_cast<double>(dropped), "count");
    run->Layer("snapshot.live_max", static_cast<double>(live_max), "count");
    SpanLayers(spans, sessions[0]->commit_ms, run);
    // Recovery stages, each a public call on the populated directory.
    std::vector<double> load_ms, scan_ms, total_ms;
    for (int i = 0; i < kProbeRecoveries; ++i) {
      Clock::time_point t0 = Clock::now();
      bool found = false;
      datalog::Result<datalog::store::SnapshotData> snap =
          datalog::store::LoadSnapshot(dir, &found);
      load_ms.push_back(MicrosSince(t0) / 1000.0);
      t0 = Clock::now();
      datalog::Result<datalog::store::WalScan> wal =
          datalog::store::ScanWal(datalog::store::WalPath(dir));
      scan_ms.push_back(MicrosSince(t0) / 1000.0);
      t0 = Clock::now();
      datalog::Result<datalog::store::Recovered> rec = datalog::store::Recover(
          dir, stack.program, stack.engine.catalog(), &stack.engine.symbols(),
          stack.base);
      total_ms.push_back(MicrosSince(t0) / 1000.0);
      const bool ok = snap.ok() && wal.ok() && rec.ok() && rec->epoch == acks();
      run->Count("probe", ok);
      if (!ok) run->Fail("probe recovery");
    }
    for (double x : load_ms) run->Sample("call:store::LoadSnapshot", x * 1000);
    for (double x : scan_ms) run->Sample("call:store::ScanWal", x * 1000);
    for (double x : total_ms) run->Sample("call:store::Recover", x * 1000);
    run->Layer("recover.load_ms", Median(load_ms), "ms");
    run->Layer("recover.scan_ms", Median(scan_ms), "ms");
    run->Layer("recover.replay_ms",
               std::max(0.0, Median(total_ms) - Median(load_ms) - Median(scan_ms)),
               "ms");

    // fsync cost: Append + Sync on a scratch log with the commit record
    // size and no automatic sync.
    const std::string probe_log = cfg.scratch + "/probe.wal";
    std::vector<double> fsync_us;
    {
      datalog::store::WalOptions wal_options;
      wal_options.sync_every = 0;
      datalog::Result<std::unique_ptr<datalog::store::Wal>> wal =
          datalog::store::Wal::Open(probe_log, wal_options);
      run->Count("probe", wal.ok());
      for (int i = 0; wal.ok() && i < kProbeCalls; ++i) {
        const Clock::time_point t0 = Clock::now();
        const bool ok = (*wal)->Append(i + 1, tokens(0, i % 2 == 0)).ok() &&
                        (*wal)->Sync().ok();
        fsync_us.push_back(MicrosSince(t0));
        run->Count("probe", ok);
      }
    }
    ::unlink(probe_log.c_str());
    for (double x : fsync_us) run->Sample("call:Wal::Append+Sync", x);
    run->Layer("store.fsync_us", Median(fsync_us), "us");

    // The scheduler-driven calls, on a durable probe directory.
    ServerOptions probe_options = options;
    probe_options.durability.dir = cfg.scratch + "/probe-store";
    RemoveTree(probe_options.durability.dir);
    ProbeCalls(&stack, stack.base, probe_options, tokens(0, true),
               tokens(0, false), run);
    RemoveTree(probe_options.durability.dir);
  }
  RemoveTree(dir);
}

}  // namespace perfbench
