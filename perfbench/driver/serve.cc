// Serve workload (serve_mixed): an in-process QueryServer with two
// workers over an UpdatableDatabase seeded from the snapshot, driven by
// this thread as the only client, on two pipelined connections.
//
// The run is kRounds rounds; each round:
//  1. set-up: ReadBinary + SeedFrom + QueryServer::Start, twice; the last
//     instance serves the round;
//  2. a first pass: the TOPK threshold grid, one request at a time, with
//     fresh planner feedback (what a new server pays);
//  3. an open-loop segment of --seconds / kRounds on a seeded schedule:
//     PROBE at 300/s, TOPK at 2/s, and every 200 ms a batch of INSERTs
//     followed by PUBLISH. Requests are sent when due whatever is still in
//     flight, and each is timed from its scheduled send time;
//  4. a closed-loop capacity window: one PROBE outstanding per connection.
// Every cold-start and capacity sample is thus spread over the run, and
// run.py reports medians. At the end, the last instance is checked: PROBE
// and TOPK replies against in-process FindSimilarUsers / RunTopKSTPSJoin
// on its final snapshot, and its live-object count against seeded +
// inserted.
//
// Each connection is served by one worker for its lifetime, so a TOPK
// holds up the PROBEs queued behind it on its connection. The client sets
// TCP_NODELAY on its own sockets so that only the server's socket options
// shape the replies' timing: with Nagle's algorithm on the server's side,
// once an INSERT batch's burst of replies is unacknowledged, each later
// reply waits for the client's next request on that connection, so the
// PROBE median sits near the per-connection send interval (2 / 300 s).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/stpsjoin.h"
#include "core/update.h"
#include "io/binary.h"
#include "planner/feedback.h"
#include "planner/planner.h"
#include "server/server.h"

namespace perfbench {

namespace {

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
// Rounds of set-up, first pass, open-loop segment and capacity window,
// so every cold-start and capacity sample is spread over the run.
constexpr int kRounds = 6;
constexpr int kSetupsPerRound = 2;
constexpr double kProbeIntervalMs = 1000.0 / 300.0;
constexpr double kTopKIntervalMs = 500.0;
constexpr double kWriteIntervalMs = 200.0;
constexpr int kBatchUsers = 4;
constexpr int kObjectsPerUser = 5;
constexpr double kCapacityMs = 1000.0;
constexpr size_t kCheckUsers = 200;
// CheckinSparse defaults (datagen/presets.cc).
constexpr double kEpsLoc = 0.001;
constexpr double kProbeEps = 0.4;
constexpr double kTopKEps[] = {0.3, 0.4, 0.5};
constexpr size_t kTopK = 10;

enum class Kind { kProbe, kTopK, kInsert, kPublish, kStats };

const char* SpanName(Kind kind) {
  switch (kind) {
    case Kind::kProbe:
      return "server.probe";
    case Kind::kTopK:
      return "server.topk";
    case Kind::kInsert:
      return "server.insert";
    case Kind::kPublish:
      return "server.publish";
    case Kind::kStats:
      return "server.stats";
  }
  return "server.request";
}

struct Request {
  Kind kind = Kind::kProbe;
  std::string line;  // without the trailing '\n'
  int conn = 0;
  double scheduled_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  uint64_t id = 0;
  int batch = -1;       // write batch of an INSERT / PUBLISH
  bool traced = true;   // recorded as a span (when tracing is on)
  std::string reply;

  bool ok() const { return reply.rfind("OK", 0) == 0; }
};

/// Line-protocol client over several non-blocking connections. Requests
/// on one connection are answered in order, so replies are matched to the
/// oldest pending request of their connection.
class Client {
 public:
  explicit Client(Tracer* tracer) : tracer_(tracer) {}
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port, int count) {
    for (int i = 0; i < count; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      conns_.emplace_back();
      conns_.back().fd = fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return true;
  }

  /// Queues `r` on its connection and writes what the socket accepts.
  void Send(Request r) {
    Conn& c = conns_[static_cast<size_t>(r.conn)];
    r.sent_ms = NowMs();
    c.out += r.line;
    c.out += '\n';
    c.pending.push_back(std::move(r));
    Flush(&c);
  }

  /// Waits up to `timeout_ms` for socket activity and collects complete
  /// replies into done(). Returns false once a connection broke.
  bool Pump(double timeout_ms) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back({c.fd, static_cast<short>(
                               POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                     0});
    }
    const double wait = std::max(0.0, timeout_ms);
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait / 1000.0);
    ts.tv_nsec = static_cast<long>(
        std::fmod(wait, 1000.0) * 1e6);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      broken_ = true;
      return false;
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(&c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Receive(&c);
    }
    return !broken_;
  }

  size_t in_flight() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  bool broken() const { return broken_; }
  std::vector<Request>& done() { return done_; }

  /// Sends `r` and pumps until its reply arrives (closed loop).
  bool RoundTrip(Request r, Request* out) {
    const size_t before = done_.size();
    Send(std::move(r));
    while (done_.size() == before) {
      if (!Pump(100.0)) return false;
    }
    *out = done_.back();
    return true;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<Request> pending;
  };

  void Flush(Conn* c) {
    while (!c->out.empty()) {
      const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c->out.erase(0, static_cast<size_t>(n));
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        broken_ = true;
        return;
      }
    }
  }

  void Receive(Conn* c) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        c->in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      broken_ = true;  // closed by the server or failed
      break;
    }
    Parse(c);
  }

  // PROBE / TOPK replies are "OK <rows> <epoch>" plus <rows> lines; every
  // other reply, and every ERR, is one line.
  void Parse(Conn* c) {
    while (!c->pending.empty()) {
      Request& r = c->pending.front();
      size_t nl = c->in.find('\n');
      if (nl == std::string::npos) return;
      size_t end = nl + 1;
      if ((r.kind == Kind::kProbe || r.kind == Kind::kTopK) &&
          c->in.compare(0, 3, "OK ") == 0) {
        const unsigned long long rows =
            std::strtoull(c->in.c_str() + 3, nullptr, 10);
        for (unsigned long long i = 0; i < rows; ++i) {
          nl = c->in.find('\n', end);
          if (nl == std::string::npos) return;
          end = nl + 1;
        }
      }
      r.done_ms = NowMs();
      r.reply = c->in.substr(0, end);
      c->in.erase(0, end);
      if (r.traced) tracer_->Add(SpanName(r.kind), r.sent_ms, r.done_ms, r.id);
      done_.push_back(std::move(r));
      c->pending.pop_front();
    }
  }

  Tracer* tracer_;
  std::vector<Conn> conns_;
  std::vector<Request> done_;
  bool broken_ = false;
};

/// The reply the server sends for `pairs` (server.cc AppendPairRows).
std::string ExpectedRows(const stps::ObjectDatabase& db,
                         const std::vector<stps::ScoredUserPair>& pairs,
                         uint64_t epoch) {
  std::string out = "OK " + std::to_string(pairs.size()) + " " +
                    std::to_string(epoch) + "\n";
  char buffer[64];
  for (const stps::ScoredUserPair& p : pairs) {
    out.append(db.UserName(p.a));
    out.push_back(' ');
    out.append(db.UserName(p.b));
    std::snprintf(buffer, sizeof(buffer), " %.6f\n", p.score);
    out.append(buffer);
  }
  return out;
}

std::string ProbeLine(std::string_view user) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "PROBE %.*s %g %g %g",
                static_cast<int>(user.size()), user.data(), kEpsLoc,
                kProbeEps, kProbeEps);
  return buffer;
}

std::string TopKLine(double eps) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "TOPK %g %g %zu", kEpsLoc, eps,
                kTopK);
  return buffer;
}

/// An INSERT near one of the user's existing objects, with its keywords,
/// kept inside the database bounds so publishes stay on the delta path.
std::string InsertLine(const stps::ObjectDatabase& db, stps::UserId user,
                       std::mt19937_64* rng, stps::RawObject* raw) {
  const std::span<const stps::STObject> objects = db.UserObjects(user);
  const stps::STObject& o =
      objects[std::uniform_int_distribution<size_t>(0, objects.size() - 1)(
          *rng)];
  std::normal_distribution<double> jitter(0.0, 1e-4);
  const stps::Rect& b = db.bounds();
  raw->user = std::string(db.UserName(user));
  raw->loc.x = std::clamp(o.loc.x + jitter(*rng), b.min_x, b.max_x);
  raw->loc.y = std::clamp(o.loc.y + jitter(*rng), b.min_y, b.max_y);
  raw->keywords.clear();
  std::string keywords;
  for (const stps::TokenId t : o.doc) {
    raw->keywords.emplace_back(db.dictionary().TokenString(t));
    if (!keywords.empty()) keywords += ',';
    keywords += raw->keywords.back();
  }
  if (keywords.empty()) keywords = "-";
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), " %.17g %.17g ", raw->loc.x,
                raw->loc.y);
  return "INSERT " + raw->user + buffer + keywords;
}

/// Parses "OK key=value key=value ..." (the STATS reply).
std::map<std::string, double> ParseStats(const std::string& reply) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while ((pos = reply.find('=', pos)) != std::string::npos) {
    const size_t key_start = reply.rfind(' ', pos) + 1;
    out[reply.substr(key_start, pos - key_start)] =
        std::strtod(reply.c_str() + pos + 1, nullptr);
    ++pos;
  }
  return out;
}

struct Event {
  double at_ms = 0.0;
  Kind kind = Kind::kProbe;
  int conn = 0;
  int batch = -1;
  std::string line;
};

/// The open-loop schedule for `seconds`, fully determined by the seed.
std::vector<Event> Schedule(const stps::ObjectDatabase& db, double seconds,
                            std::mt19937_64* rng,
                            std::vector<stps::RawObject>* example_batch) {
  const double span_ms = seconds * 1000.0;
  std::uniform_int_distribution<stps::UserId> any_user(
      0, static_cast<stps::UserId>(db.num_users() - 1));
  std::vector<Event> events;
  int probes = 0;
  for (double at = 0.0; at < span_ms; at += kProbeIntervalMs, ++probes) {
    events.push_back({at, Kind::kProbe, probes % kConnections, -1,
                      ProbeLine(db.UserName(any_user(*rng)))});
  }
  int topks = 0;
  for (double at = kTopKIntervalMs / 2; at < span_ms;
       at += kTopKIntervalMs, ++topks) {
    events.push_back({at, Kind::kTopK, topks % kConnections, -1,
                      TopKLine(kTopKEps[topks % 3])});
  }
  int batch = 0;
  stps::RawObject raw;
  for (double at = kWriteIntervalMs / 4; at < span_ms;
       at += kWriteIntervalMs, ++batch) {
    const int conn = batch % kConnections;
    for (int u = 0; u < kBatchUsers; ++u) {
      const stps::UserId user = any_user(*rng);
      for (int i = 0; i < kObjectsPerUser; ++i) {
        events.push_back({at, Kind::kInsert, conn, batch,
                          InsertLine(db, user, rng, &raw)});
        if (batch == 0 && example_batch->size() < kBatchUsers * kObjectsPerUser) {
          example_batch->push_back(raw);
        }
      }
    }
    events.push_back({at, Kind::kPublish, conn, batch, "PUBLISH"});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_ms < b.at_ms;
                   });
  return events;
}

/// Sends `events` on schedule, starting now, and waits for every reply.
/// Every other request is left untraced, so that in a traced run traced
/// and untraced requests interleave over the same period and give the
/// tracing overhead.
bool RunOpenLoop(Client* client, const std::vector<Event>& events,
                 std::vector<Request>* out, uint64_t* next_id) {
  const double t0 = NowMs() + 1.0;
  const size_t first_done = client->done().size();
  size_t next = 0;
  while (next < events.size() || client->in_flight() > 0) {
    const double now = NowMs();
    while (next < events.size() && t0 + events[next].at_ms <= now) {
      const Event& e = events[next++];
      Request r;
      r.kind = e.kind;
      r.line = e.line;
      r.conn = e.conn;
      r.batch = e.batch;
      r.scheduled_ms = t0 + e.at_ms;
      r.id = ++*next_id;
      r.traced = r.id % 2 == 0;
      client->Send(std::move(r));
    }
    const double due =
        next < events.size() ? t0 + events[next].at_ms : NowMs() + 100.0;
    if (!client->Pump(due - NowMs())) return false;
  }
  std::vector<Request>& done = client->done();
  out->assign(std::make_move_iterator(done.begin() + first_done),
              std::make_move_iterator(done.end()));
  done.resize(first_done);
  return true;
}

struct Instance {
  std::unique_ptr<stps::UpdatableDatabase> db;
  std::unique_ptr<stps::QueryServer> server;
  size_t objects = 0;  // seeded
};

/// Set-up times of every instance made.
struct SetupTimes {
  std::vector<double> total_ms, read_ms, seed_ms, start_ms;
};

/// The measured set-up: ReadBinary + SeedFrom + QueryServer::Start.
bool SetUp(const std::string& snapshot, Tracer* tracer, Instance* out,
           SetupTimes* times) {
  const double t0 = NowMs();
  stps::Result<stps::ObjectDatabase> loaded = [&] {
    ScopedSpan span(tracer, "io.read");
    return stps::ReadBinary(snapshot);
  }();
  if (!loaded.ok()) {
    std::fprintf(stderr, "serve_mixed: %s\n",
                 loaded.status().ToString().c_str());
    return false;
  }
  const double t1 = NowMs();
  {
    ScopedSpan span(tracer, "update.seed");
    out->db = std::make_unique<stps::UpdatableDatabase>();
    out->db->SeedFrom(loaded.value());
  }
  const double t2 = NowMs();
  stps::Status status;
  {
    ScopedSpan span(tracer, "server.start");
    stps::ServerOptions server_options;
    server_options.num_workers = kWorkers;
    out->server =
        std::make_unique<stps::QueryServer>(out->db.get(), server_options);
    status = out->server->Start();
  }
  const double t3 = NowMs();
  if (!status.ok()) {
    std::fprintf(stderr, "serve_mixed: %s\n", status.ToString().c_str());
    return false;
  }
  out->objects = loaded.value().num_objects();
  times->total_ms.push_back(t3 - t0);
  times->read_ms.push_back(t1 - t0);
  times->seed_ms.push_back(t2 - t1);
  times->start_ms.push_back(t3 - t2);
  return true;
}

}  // namespace

int RunServe(const RunOptions& options, JsonWriter* json) {
  Tracer tracer(options.trace);
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t next_id = 0;
  const auto fail = [](const char* what) {
    std::fprintf(stderr, "serve_mixed: %s\n", what);
    return 1;
  };
  const auto request = [&](Kind kind, std::string line, int conn = 0) {
    Request r;
    r.kind = kind;
    r.line = std::move(line);
    r.conn = conn;
    r.scheduled_ms = NowMs();
    r.id = ++next_id;
    return r;
  };

  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ull + 1);
  SetupTimes setup;
  Instance live;
  std::unique_ptr<Client> client;
  std::vector<stps::RawObject> example_batch;
  std::vector<double> first_pass_ms, capacity_qps, visible_ms;
  std::vector<double> probe_ms, topk_ms, scheduled_ms, sent_ms, publish_ms;
  std::vector<double> overhead_traced, overhead_untraced;
  double min_samples = 0.0;
  double reused = 0.0;
  double rebuilt = 0.0;
  uint64_t inserted = 0;  // into the live instance
  uint64_t delta_publishes = 0;
  double server_failed = 0.0;
  double server_rejected = 0.0;

  for (int round = 0; round < kRounds; ++round) {
    // --- Set-up, repeated; the last instance serves the round. ------------
    client.reset();
    {
      ScopedSpan root(&tracer, "bench.setup");
      for (int i = 0; i < kSetupsPerRound; ++i) {
        live = Instance();  // shut the previous server down first
        if (!SetUp(options.snapshot, &tracer, &live, &setup)) return 1;
      }
    }
    client = std::make_unique<Client>(&tracer);
    if (!client->Connect(live.server->port(), kConnections)) {
      return fail("cannot connect to the server");
    }

    // --- First pass over the TOPK grid with fresh planner feedback. -------
    stps::PlannerFeedback::Global().Reset();
    {
      ScopedSpan root(&tracer, "bench.first_pass");
      const double start = NowMs();
      for (const double eps : kTopKEps) {
        Request reply;
        if (!client->RoundTrip(request(Kind::kTopK, TopKLine(eps)), &reply)) {
          return fail("connection lost in the first pass");
        }
        ++attempted;
        if (!reply.ok()) ++failed;
      }
      first_pass_ms.push_back(NowMs() - start);
    }
    Request stats_before;
    if (!client->RoundTrip(request(Kind::kStats, "STATS"), &stats_before)) {
      return fail("connection lost");
    }

    // --- Open-loop segment. -------------------------------------------------
    // Held for the round: publishes swap the live epoch out from under it.
    const std::shared_ptr<const stps::DatabaseSnapshot> seeded_snapshot =
        live.db->snapshot();
    const stps::ObjectDatabase& seeded = seeded_snapshot->db;
    const std::vector<Event> events = Schedule(
        seeded, options.seconds / kRounds, &rng, &example_batch);
    std::vector<Request> open;
    {
      ScopedSpan root(&tracer, "bench.open_loop");
      if (!RunOpenLoop(client.get(), events, &open, &next_id)) {
        return fail("connection lost in the open loop");
      }
    }
    std::map<int, double> batch_start, batch_visible;
    inserted = 0;
    for (const Request& r : open) {
      ++attempted;
      if (!r.ok()) ++failed;
      scheduled_ms.push_back(r.scheduled_ms);
      sent_ms.push_back(r.sent_ms);
      const double latency = r.done_ms - r.scheduled_ms;
      switch (r.kind) {
        case Kind::kProbe:
          probe_ms.push_back(latency);
          (r.traced ? overhead_traced : overhead_untraced).push_back(latency);
          min_samples += 1.0;
          break;
        case Kind::kTopK:
          topk_ms.push_back(latency);
          break;
        case Kind::kInsert:
          if (r.ok()) ++inserted;
          batch_start.emplace(r.batch, r.scheduled_ms);
          break;
        case Kind::kPublish: {
          batch_visible[r.batch] = r.done_ms;
          // "OK <epoch> <delta|full|unchanged> <ms>"
          char path[16] = {0};
          unsigned long long epoch = 0;
          double ms = 0.0;
          if (std::sscanf(r.reply.c_str(), "OK %llu %15s %lf", &epoch, path,
                          &ms) == 3) {
            publish_ms.push_back(ms);
            if (std::string(path) == "delta") ++delta_publishes;
          }
          break;
        }
        case Kind::kStats:
          break;
      }
    }
    for (const auto& [batch, visible] : batch_visible) {
      visible_ms.push_back(visible - batch_start[batch]);
    }

    // --- Closed-loop capacity window. -------------------------------------
    {
      ScopedSpan root(&tracer, "bench.capacity");
      std::uniform_int_distribution<stps::UserId> any_user(
          0, static_cast<stps::UserId>(seeded.num_users() - 1));
      const auto probe = [&](int conn) {
        client->Send(request(
            Kind::kProbe, ProbeLine(seeded.UserName(any_user(rng))), conn));
      };
      const size_t first_done = client->done().size();
      const double start = NowMs();
      const double end = start + kCapacityMs;
      for (int c = 0; c < kConnections; ++c) probe(c);
      size_t seen = first_done;
      size_t completed = 0;
      double last_ms = start;
      while (client->in_flight() > 0) {
        if (!client->Pump(100.0)) return fail("connection lost (capacity)");
        for (; seen < client->done().size(); ++seen) {
          const Request& r = client->done()[seen];
          ++attempted;
          if (!r.ok()) ++failed;
          if (r.done_ms <= end) {
            ++completed;
            last_ms = r.done_ms;
            probe(r.conn);
          }
        }
      }
      capacity_qps.push_back(completed / ((last_ms - start) / 1000.0));
      client->done().resize(first_done);
    }

    // The instance's own counters over the round.
    Request stats_after;
    if (!client->RoundTrip(request(Kind::kStats, "STATS"), &stats_after)) {
      return fail("connection lost");
    }
    std::map<std::string, double> before = ParseStats(stats_before.reply);
    std::map<std::string, double> after = ParseStats(stats_after.reply);
    reused += after["blocks_reused"] - before["blocks_reused"];
    rebuilt += after["blocks_rebuilt"] - before["blocks_rebuilt"];
    server_failed += after["failed"];
    server_rejected += after["rejected"];
  }

  // --- Checks against the final snapshot. ---------------------------------
  const size_t check_root = tracer.Open("bench.check");
  Request publish_reply, stats_reply;
  if (!client->RoundTrip(request(Kind::kPublish, "PUBLISH"), &publish_reply) ||
      !client->RoundTrip(request(Kind::kStats, "STATS"), &stats_reply)) {
    return fail("connection lost (checks)");
  }
  attempted += 2;
  if (!publish_reply.ok()) ++failed;
  if (!stats_reply.ok()) ++failed;
  const std::shared_ptr<const stps::DatabaseSnapshot> snapshot =
      live.db->snapshot();
  const stps::ObjectDatabase& db = snapshot->db;
  const double live_objects = ParseStats(stats_reply.reply)["live_objects"];
  checks.push_back(
      {"live_objects_equal_seeded_plus_inserted",
       live_objects == static_cast<double>(live.objects + inserted) &&
           db.num_objects() == live.objects + inserted,
       std::to_string(live.objects) + " seeded + " +
           std::to_string(inserted) + " inserted, server reports " +
           std::to_string(static_cast<uint64_t>(live_objects))});

  // PROBE replies for a user sample, sent open loop at the traffic's rate,
  // against in-process FindSimilarUsers on the same (final) epoch.
  std::vector<Event> sample;
  std::uniform_int_distribution<stps::UserId> any_user(
      0, static_cast<stps::UserId>(db.num_users() - 1));
  std::vector<stps::UserId> sample_users;
  for (size_t i = 0; i < kCheckUsers; ++i) {
    sample_users.push_back(any_user(rng));
    sample.push_back({static_cast<double>(i) * kProbeIntervalMs, Kind::kProbe,
                      static_cast<int>(i % kConnections), -1,
                      ProbeLine(db.UserName(sample_users.back()))});
  }
  std::vector<Request> sampled;
  if (!RunOpenLoop(client.get(), sample, &sampled, &next_id)) {
    return fail("connection lost (probe check)");
  }
  std::map<std::string, const Request*> by_line;
  for (const Request& r : sampled) by_line[r.line] = &r;
  stps::STPSQuery probe_query;
  probe_query.eps_loc = kEpsLoc;
  probe_query.eps_doc = kProbeEps;
  probe_query.eps_u = kProbeEps;
  std::vector<double> core_probe_ms, wire_ms;
  uint64_t probe_mismatches = 0;
  for (size_t i = 0; i < sample_users.size(); ++i) {
    const Request& r = *by_line[sample[i].line];
    const double start = NowMs();
    std::vector<stps::ScoredUserPair> expected;
    {
      ScopedSpan span(&tracer, "core.probe", r.id);
      expected = stps::FindSimilarUsers(db, sample_users[i], probe_query);
    }
    const double ms = NowMs() - start;
    core_probe_ms.push_back(ms);
    wire_ms.push_back(r.done_ms - r.scheduled_ms - ms);
    if (r.reply != ExpectedRows(db, expected, snapshot->epoch)) {
      ++probe_mismatches;
    }
  }
  attempted += sampled.size();
  failed += probe_mismatches;
  checks.push_back({"probe_replies_match_in_process", probe_mismatches == 0,
                    std::to_string(probe_mismatches) + " of " +
                        std::to_string(sampled.size()) + " differ"});

  // TOPK replies against in-process kAuto and explicit TOPK-S-PPJ-P runs.
  uint64_t topk_mismatches = 0;
  std::vector<double> plan_ms, exec_ms;
  stps::JoinStats topk_stats;
  uint64_t switches = 0;
  for (const double eps : kTopKEps) {
    Request reply;
    if (!client->RoundTrip(request(Kind::kTopK, TopKLine(eps)), &reply)) {
      return fail("connection lost (topk check)");
    }
    ++attempted;
    stps::TopKQuery query;
    query.eps_loc = kEpsLoc;
    query.eps_doc = eps;
    query.k = kTopK;
    std::vector<stps::ScoredUserPair> reference;
    {
      ScopedSpan span(&tracer, "core.reference", reply.id);
      reference = stps::RunTopKSTPSJoin(db, query, stps::TopKAlgorithm::kP);
    }
    if (reply.reply != ExpectedRows(db, reference, snapshot->epoch)) {
      ++topk_mismatches;
    }
    // Traced runs also time the planner and an in-process kAuto run.
    if (!tracer.enabled()) continue;
    {
      const double start = NowMs();
      ScopedSpan span(&tracer, "planner.plan", reply.id);
      (void)stps::PlanTopKSTPSJoin(db, query);
      plan_ms.push_back(NowMs() - start);
    }
    stps::JoinStats stats;
    const double start = NowMs();
    std::vector<stps::ScoredUserPair> automatic;
    {
      ScopedSpan span(&tracer, "core.run", reply.id);
      automatic = stps::RunTopKSTPSJoin(db, query, stps::TopKAlgorithm::kAuto,
                                        &stats);
    }
    exec_ms.push_back(NowMs() - start);
    topk_stats.Merge(stats);
    switches += stats.planner_plan_switches;
    if (ResultChecksum(automatic) != ResultChecksum(reference)) {
      ++topk_mismatches;
    }
  }
  failed += topk_mismatches;
  checks.push_back({"topk_replies_match_in_process", topk_mismatches == 0,
                    std::to_string(topk_mismatches) + " of 3 differ"});

  // Traced runs price the set-up parts and one in-process write batch.
  SetupParts parts;
  double insert_us = 0.0;
  if (tracer.enabled()) {
    parts = TimeSetupParts(db, &tracer, &checks);
    const double start = NowMs();
    {
      ScopedSpan span(&tracer, "update.insert");
      live.db->InsertObjects(example_batch);
    }
    insert_us = (NowMs() - start) * 1000.0 /
                static_cast<double>(std::max<size_t>(1, example_batch.size()));
    ScopedSpan span(&tracer, "update.publish");
    live.db->PublishIfDirty();
  }
  tracer.Close(check_root);
  // --- Report. ------------------------------------------------------------
  WriteReportHead(*options.workload, db.num_objects(), db.num_users(), checks,
                  attempted, failed, json);
  json->Field("setup_ms", setup.total_ms);
  json->Field("peak_rss_mb", PeakRssMb());
  json->Field("first_pass_ms", first_pass_ms);
  json->Field("visible_ms", visible_ms);
  json->Field("latency_ms", probe_ms);
  json->Field("min_samples", min_samples);
  json->Field("topk_ms", topk_ms);
  json->Field("capacity_qps", capacity_qps);
  json->Field("overhead_traced", overhead_traced);
  json->Field("overhead_untraced", overhead_untraced);
  json->Field("scheduled_ms", scheduled_ms);
  json->Field("sent_ms", sent_ms);
  json->Field("wire_ms", wire_ms);

  json->Key("layers");
  json->BeginObject();
  json->Field("planner.plan_ms", plan_ms);
  json->Field("planner.switches", static_cast<double>(switches));
  json->Field("planner.est_ratio",
              Ratio(topk_stats.planner_estimated_candidates,
                    topk_stats.pairs_candidate));
  json->Field("core.exec_ms", exec_ms);
  json->Field("core.probe_ms", core_probe_ms);
  WriteJoinStatsLayers(topk_stats, json);
  WriteSetupParts(parts, json);
  json->Field("io.read_ms", setup.read_ms);
  json->Field("update.seed_ms", setup.seed_ms);
  json->Field("update.insert_us", insert_us);
  json->Field("update.publish_ms", publish_ms);
  json->Field("update.delta_frac",
              Ratio(static_cast<double>(delta_publishes),
                    static_cast<double>(publish_ms.size())));
  json->Field("update.blocks_reused_frac", Ratio(reused, reused + rebuilt));
  json->Field("server.start_ms", setup.start_ms);
  json->Field("server.failed", server_failed);
  json->Field("server.rejected", server_rejected);
  json->EndObject();

  json->Key("spans");
  tracer.Write(json);
  json->EndObject();
  return 0;
}

}  // namespace perfbench
