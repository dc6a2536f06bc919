// QueryServer: a long-running concurrent query server over an
// UpdatableDatabase, speaking a line protocol on a TCP socket.
//
// Execution model: one poll-based accept thread plus a fixed pool of
// request workers. Accepted connections enter a bounded queue (the
// admission control surface); when the queue is full the connection is
// turned away immediately with "ERR busy" — backpressure the client can
// see — instead of piling up latency. Each worker serves one connection
// at a time, one request per line, every query running against the
// epoch snapshot it grabbed at dispatch (writers never invalidate it).
//
// Protocol (requests are single lines, '\n'-terminated; fields split on
// spaces; responses start with "OK" or "ERR"):
//
//   PING
//     -> OK pong
//   JOIN <eps_loc> <eps_doc> <eps_u> [ALGO <auto|sppjc|sppjb|sppjf|
//        sppjd|brute>] [THREADS <n>] [SKETCH]
//     -> OK <n_pairs> <epoch>, then n_pairs lines "<userA> <userB> <sigma>"
//   TOPK <eps_loc> <eps_doc> <k> [ALGO <auto|f|s|p|brute>]
//        [THREADS <n>] [SKETCH]
//     -> same row format
//   (JOIN / TOPK answer "ERR <reason>" when the thresholds fail the
//   chosen algorithm's preconditions: ValidateJoinQuery /
//   ValidateTopKQuery in core/stpsjoin.h.)
//   PROBE <user> <eps_loc> <eps_doc> <eps_u>
//     -> similar-users rows for one user, best-first
//   INSERT <user> <x> <y> <kw1,kw2,...|-> [time]
//     -> OK <live_objects> <epoch>   ("-" inserts an empty keyword set)
//   DELETE <user>
//     -> OK <live_objects> <epoch> | ERR unknown user
//   PUBLISH
//     -> OK <epoch>   (epoch of the snapshot now served)
//
// Read-only mode: constructed from a fixed DatabaseSnapshot (e.g. an
// mmap'd v3 snapshot opened via ReadBinaryMapped) the server answers
// every query against that one snapshot and rejects INSERT / DELETE /
// PUBLISH with "ERR read-only server". Queries page the arena on demand;
// nothing is copied per connection.
//   EPOCH
//     -> OK <epoch>
//   STATS
//     -> OK one line of server+database counters
//   SLEEP <ms>
//     -> OK slept     (testing aid: occupies a worker)
//   QUIT
//     -> OK bye, connection closes
//   SHUTDOWN
//     -> OK shutting down; the server stops accepting and drains
//
// Graceful shutdown: Shutdown() (or a client's SHUTDOWN) stops the
// accept loop, lets every in-flight request finish and respond, closes
// queued-but-unserved connections with "ERR shutting down", and joins
// all threads. Safe to call more than once.

#ifndef STPS_SERVER_SERVER_H_
#define STPS_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/update.h"

namespace stps {

struct ServerOptions {
  /// Bind address. Loopback by default: the server is an internal
  /// component, not an internet-facing endpoint.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Request worker threads.
  int num_workers = 4;
  /// Admission control: connections waiting for a worker beyond this
  /// bound are rejected with "ERR busy".
  size_t max_pending = 16;
  /// Per-connection idle timeout; connections silent for this long are
  /// closed. Also bounds shutdown latency of idle connections.
  int idle_timeout_ms = 30000;
  /// Upper bound a client may request via THREADS.
  int max_query_threads = 16;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t requests_served = 0;
  uint64_t requests_failed = 0;  // requests answered with ERR
};

class QueryServer {
 public:
  /// The server serves and mutates `db`, which must outlive it.
  explicit QueryServer(UpdatableDatabase* db, ServerOptions options = {});

  /// Read-only server over one fixed snapshot (see the header comment).
  /// The snapshot is shared, not copied — an mmap'd database stays
  /// mapped, not materialised.
  explicit QueryServer(std::shared_ptr<const DatabaseSnapshot> snapshot,
                       ServerOptions options = {});
  ~QueryServer();
  STPS_DISALLOW_COPY_AND_ASSIGN(QueryServer);

  /// Binds, listens, and spawns the accept + worker threads.
  Status Start();

  /// The bound port (after a successful Start).
  int port() const { return port_; }

  /// Flags the server to stop and wakes every thread; returns without
  /// joining. Called from worker threads on SHUTDOWN.
  void RequestShutdown();

  /// True once RequestShutdown / Shutdown has been initiated.
  bool shutdown_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Blocks until shutdown has been requested (SHUTDOWN command or
  /// RequestShutdown), polling so signal handlers can flip flags.
  void WaitForShutdownRequest();

  /// Full graceful shutdown: stop accepting, drain, join. Idempotent.
  void Shutdown();

  /// True when constructed over a fixed snapshot (no write commands).
  bool read_only() const { return db_ == nullptr; }

  ServerStats stats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);
  // Executes one request line, appending the response (one or more
  // '\n'-terminated lines) to *out. Returns false when the connection
  // should close after the response is sent.
  bool HandleRequest(const std::string& line, std::string* out);
  // The snapshot queries run against: the live epoch in read-write mode,
  // the fixed one in read-only mode.
  std::shared_ptr<const DatabaseSnapshot> CurrentSnapshot() const;

  UpdatableDatabase* const db_;  // null in read-only mode
  const std::shared_ptr<const DatabaseSnapshot> fixed_snapshot_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  // Serializes Start/Shutdown and guards the lifecycle flags below, so
  // concurrent Shutdown calls (destructor racing a signal thread) cannot
  // double-join the worker threads.
  std::mutex lifecycle_mutex_;
  bool started_ = false;   // guarded by lifecycle_mutex_
  bool joined_ = false;    // guarded by lifecycle_mutex_

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
};

}  // namespace stps

#endif  // STPS_SERVER_SERVER_H_
