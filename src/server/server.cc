#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/parse.h"
#include "core/stpsjoin.h"

namespace stps {

namespace {

// Poll interval for blocking points (accept, reads, queue waits): the
// upper bound on how long shutdown can go unnoticed by any thread.
constexpr int kPollMs = 100;

// One request line may not exceed this (a malicious or broken client
// must not grow our buffer without bound).
constexpr size_t kMaxLineBytes = 1 << 16;

std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos > start) fields.push_back(line.substr(start, pos - start));
  }
  return fields;
}

bool ParseJoinAlgorithm(std::string_view name, JoinAlgorithm* out) {
  if (name == "auto") *out = JoinAlgorithm::kAuto;
  else if (name == "sppjc") *out = JoinAlgorithm::kSPPJC;
  else if (name == "sppjb") *out = JoinAlgorithm::kSPPJB;
  else if (name == "sppjf") *out = JoinAlgorithm::kSPPJF;
  else if (name == "sppjd") *out = JoinAlgorithm::kSPPJD;
  else if (name == "brute") *out = JoinAlgorithm::kBruteForce;
  else return false;
  return true;
}

bool ParseTopKAlgorithm(std::string_view name, TopKAlgorithm* out) {
  if (name == "auto") *out = TopKAlgorithm::kAuto;
  else if (name == "f") *out = TopKAlgorithm::kF;
  else if (name == "s") *out = TopKAlgorithm::kS;
  else if (name == "p") *out = TopKAlgorithm::kP;
  else if (name == "brute") *out = TopKAlgorithm::kBruteForce;
  else return false;
  return true;
}

void AppendPairRows(const ObjectDatabase& db,
                    const std::vector<ScoredUserPair>& pairs,
                    uint64_t epoch, std::string* out) {
  char buffer[64];
  out->append("OK ");
  std::snprintf(buffer, sizeof(buffer), "%zu %llu\n", pairs.size(),
                static_cast<unsigned long long>(epoch));
  out->append(buffer);
  for (const ScoredUserPair& pair : pairs) {
    out->append(db.UserName(pair.a));
    out->push_back(' ');
    out->append(db.UserName(pair.b));
    std::snprintf(buffer, sizeof(buffer), " %.6f\n", pair.score);
    out->append(buffer);
  }
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(UpdatableDatabase* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  STPS_CHECK(db != nullptr);
}

QueryServer::QueryServer(std::shared_ptr<const DatabaseSnapshot> snapshot,
                         ServerOptions options)
    : db_(nullptr),
      fixed_snapshot_(std::move(snapshot)),
      options_(std::move(options)) {
  STPS_CHECK(fixed_snapshot_ != nullptr);
}

std::shared_ptr<const DatabaseSnapshot> QueryServer::CurrentSnapshot() const {
  return db_ != nullptr ? db_->snapshot() : fixed_snapshot_;
}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  STPS_CHECK(!started_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind failed on " + options_.host + ":" +
                           std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void QueryServer::RequestShutdown() {
  stopping_.store(true, std::memory_order_release);
  // The empty critical sections order the flag store before the notify
  // with respect to waiters that checked the predicate under the lock —
  // without them a waiter could check, miss the store, then sleep
  // through the notification.
  { std::lock_guard<std::mutex> lock(queue_mutex_); }
  queue_cv_.notify_all();
  { std::lock_guard<std::mutex> lock(shutdown_mutex_); }
  shutdown_cv_.notify_all();
}

void QueryServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested(); });
}

void QueryServer::Shutdown() {
  RequestShutdown();
  // One caller joins; concurrent or repeated calls see started_/joined_
  // under the lock and return without touching the threads. Workers never
  // call Shutdown (the SHUTDOWN command only flags RequestShutdown), so
  // holding the lock across the joins cannot deadlock.
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!started_ || joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Turn away connections that were admitted but never reached a worker.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const int fd : pending_) {
      SendAll(fd, "ERR shutting down\n");
      ::close(fd);
    }
    pending_.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  joined_ = true;
}

ServerStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void QueryServer::AcceptLoop() {
  while (!shutdown_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    bool admitted = false;
    bool shutting_down = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (shutdown_requested()) {
        shutting_down = true;
      } else if (pending_.size() < options_.max_pending) {
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_accepted;
    } else {
      // Backpressure: tell the client why, don't make it wait. "busy"
      // invites a retry; "shutting down" tells it not to bother.
      SendAll(fd, shutting_down ? "ERR shutting down\n" : "ERR busy\n");
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_rejected;
    }
  }
}

void QueryServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || shutdown_requested();
      });
      if (pending_.empty()) {
        if (shutdown_requested()) return;
        continue;
      }
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
  }
}

void QueryServer::HandleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  auto idle_since = std::chrono::steady_clock::now();
  for (;;) {
    // Serve every complete line already buffered.
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string response;
      const bool keep_open = HandleRequest(line, &response);
      const bool sent = SendAll(fd, response);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests_served;
        if (response.rfind("ERR", 0) == 0) ++stats_.requests_failed;
      }
      if (!keep_open || !sent) {
        ::close(fd);
        return;
      }
      idle_since = std::chrono::steady_clock::now();
    }
    if (buffer.size() > kMaxLineBytes) {
      SendAll(fd, "ERR request line too long\n");
      ::close(fd);
      return;
    }
    // In-flight requests finish (above); idle connections close once a
    // shutdown is underway.
    if (shutdown_requested()) {
      ::close(fd);
      return;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      ::close(fd);
      return;
    }
    if (ready == 0) {
      const auto idle = std::chrono::steady_clock::now() - idle_since;
      if (idle > std::chrono::milliseconds(options_.idle_timeout_ms)) {
        SendAll(fd, "ERR idle timeout\n");
        ::close(fd);
        return;
      }
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {  // peer closed or error
      ::close(fd);
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

bool QueryServer::HandleRequest(const std::string& line, std::string* out) {
  const std::vector<std::string_view> fields = SplitFields(line);
  if (fields.empty()) {
    out->append("ERR empty request\n");
    return true;
  }
  const std::string_view command = fields[0];

  if (command == "PING") {
    out->append("OK pong\n");
    return true;
  }

  if (command == "QUIT") {
    out->append("OK bye\n");
    return false;
  }

  if (command == "SHUTDOWN") {
    out->append("OK shutting down\n");
    RequestShutdown();
    return false;
  }

  if (command == "EPOCH") {
    out->append("OK " + std::to_string(CurrentSnapshot()->epoch) + "\n");
    return true;
  }

  if (command == "PUBLISH") {
    if (read_only()) {
      out->append("ERR read-only server\n");
      return true;
    }
    // PublishIfDirty reports whether a new epoch was actually produced
    // and which path (delta splice vs full rebuild) built it.
    const PublishResult result = db_->PublishIfDirty();
    char buffer[96];
    if (result.published) {
      std::snprintf(buffer, sizeof(buffer), "OK %llu %s %.3f\n",
                    static_cast<unsigned long long>(result.snapshot->epoch),
                    result.delta ? "delta" : "full", result.publish_ms);
    } else {
      std::snprintf(buffer, sizeof(buffer), "OK %llu unchanged 0.000\n",
                    static_cast<unsigned long long>(result.snapshot->epoch));
    }
    out->append(buffer);
    return true;
  }

  if (command == "STATS") {
    const auto snapshot = CurrentSnapshot();
    const UpdateStats update = read_only() ? UpdateStats{} : db_->stats();
    ServerStats server;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      server = stats_;
    }
    char buffer[768];
    std::snprintf(
        buffer, sizeof(buffer),
        "OK epoch=%llu objects=%zu users=%zu live_objects=%zu "
        "inserted=%llu deleted=%llu publishes=%llu delta_publishes=%llu "
        "full_publishes=%llu dirty_users_published=%llu blocks_reused=%llu "
        "blocks_rebuilt=%llu last_publish_ms=%.3f accepted=%llu "
        "rejected=%llu served=%llu failed=%llu\n",
        static_cast<unsigned long long>(snapshot->epoch),
        snapshot->db.num_objects(), snapshot->db.num_users(),
        read_only() ? snapshot->db.num_objects() : db_->live_objects(),
        static_cast<unsigned long long>(update.objects_inserted),
        static_cast<unsigned long long>(update.objects_deleted),
        static_cast<unsigned long long>(update.publishes),
        static_cast<unsigned long long>(update.delta_publishes),
        static_cast<unsigned long long>(update.full_publishes),
        static_cast<unsigned long long>(update.dirty_users_published),
        static_cast<unsigned long long>(update.blocks_reused),
        static_cast<unsigned long long>(update.blocks_rebuilt),
        update.last_publish_ms,
        static_cast<unsigned long long>(server.connections_accepted),
        static_cast<unsigned long long>(server.connections_rejected),
        static_cast<unsigned long long>(server.requests_served),
        static_cast<unsigned long long>(server.requests_failed));
    out->append(buffer);
    return true;
  }

  if (command == "SLEEP") {
    uint64_t ms = 0;
    if (fields.size() != 2 || !ParseUint64(fields[1], &ms) || ms > 10000) {
      out->append("ERR usage: SLEEP <ms up to 10000>\n");
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    out->append("OK slept\n");
    return true;
  }

  if (command == "INSERT") {
    if (read_only()) {
      out->append("ERR read-only server\n");
      return true;
    }
    if (fields.size() < 5 || fields.size() > 6) {
      out->append("ERR usage: INSERT <user> <x> <y> <kw1,kw2,...|-> [time]\n");
      return true;
    }
    RawObject object;
    object.user = std::string(fields[1]);
    if (!ParseDouble(fields[2], &object.loc.x) ||
        !ParseDouble(fields[3], &object.loc.y)) {
      out->append("ERR bad coordinates\n");
      return true;
    }
    if (fields.size() == 6 && !ParseDouble(fields[5], &object.time)) {
      out->append("ERR bad time\n");
      return true;
    }
    const std::string_view kw = fields[4];
    if (kw != "-") {
      size_t start = 0;
      while (start <= kw.size()) {
        const size_t comma = kw.find(',', start);
        const std::string_view token =
            comma == std::string_view::npos ? kw.substr(start)
                                            : kw.substr(start, comma - start);
        if (!token.empty()) object.keywords.emplace_back(token);
        if (comma == std::string_view::npos) break;
        start = comma + 1;
      }
    }
    db_->InsertObject(object);
    out->append("OK " + std::to_string(db_->live_objects()) + " " +
                std::to_string(db_->epoch()) + "\n");
    return true;
  }

  if (command == "DELETE") {
    if (read_only()) {
      out->append("ERR read-only server\n");
      return true;
    }
    if (fields.size() != 2) {
      out->append("ERR usage: DELETE <user>\n");
      return true;
    }
    if (!db_->DeleteUser(fields[1])) {
      out->append("ERR unknown user\n");
      return true;
    }
    out->append("OK " + std::to_string(db_->live_objects()) + " " +
                std::to_string(db_->epoch()) + "\n");
    return true;
  }

  if (command == "JOIN" || command == "TOPK" || command == "PROBE") {
    // Every query runs against the snapshot taken here; concurrent
    // writers publish new epochs without disturbing it (read-only mode
    // always serves the one fixed snapshot).
    const auto snapshot = CurrentSnapshot();
    const ObjectDatabase& db = snapshot->db;

    if (command == "PROBE") {
      STPSQuery query;
      if (fields.size() != 5 || !ParseDouble(fields[2], &query.eps_loc) ||
          !ParseDouble(fields[3], &query.eps_doc) ||
          !ParseDouble(fields[4], &query.eps_u)) {
        out->append("ERR usage: PROBE <user> <eps_loc> <eps_doc> <eps_u>\n");
        return true;
      }
      if (query.eps_loc < 0 || query.eps_doc < 0 || query.eps_doc > 1 ||
          query.eps_u < 0 || query.eps_u > 1) {
        out->append("ERR thresholds out of range\n");
        return true;
      }
      // Resolve the external key to the snapshot's dense id.
      UserId user = 0;
      if (!db.FindUser(fields[1], &user)) {
        out->append("ERR unknown user\n");
        return true;
      }
      AppendPairRows(db, FindSimilarUsers(db, user, query), snapshot->epoch,
                     out);
      return true;
    }

    // JOIN / TOPK share the option-token tail.
    bool sketch = false;
    int threads = 1;
    std::string_view algorithm_name;
    bool options_ok = true;
    for (size_t i = 4; i < fields.size(); ++i) {
      if (fields[i] == "SKETCH") {
        sketch = true;
      } else if (fields[i] == "THREADS" && i + 1 < fields.size()) {
        if (!ParseInt(fields[++i], 1, options_.max_query_threads, &threads)) {
          options_ok = false;
        }
      } else if (fields[i] == "ALGO" && i + 1 < fields.size()) {
        algorithm_name = fields[++i];
      } else {
        options_ok = false;
      }
    }

    if (command == "JOIN") {
      STPSQuery query;
      JoinOptions join_options;
      join_options.algorithm = JoinAlgorithm::kAuto;
      if (!options_ok || fields.size() < 4 ||
          !ParseDouble(fields[1], &query.eps_loc) ||
          !ParseDouble(fields[2], &query.eps_doc) ||
          !ParseDouble(fields[3], &query.eps_u) ||
          (!algorithm_name.empty() &&
           !ParseJoinAlgorithm(algorithm_name, &join_options.algorithm))) {
        out->append(
            "ERR usage: JOIN <eps_loc> <eps_doc> <eps_u> [ALGO <name>] "
            "[THREADS <n>] [SKETCH]\n");
        return true;
      }
      if (query.eps_loc < 0 || query.eps_doc < 0 || query.eps_doc > 1 ||
          query.eps_u < 0 || query.eps_u > 1) {
        out->append("ERR thresholds out of range\n");
        return true;
      }
      query.sketch.enabled = sketch;
      join_options.threads = threads;
      const Status valid = ValidateJoinQuery(query, join_options);
      if (!valid.ok()) {
        out->append("ERR " + valid.message() + "\n");
        return true;
      }
      AppendPairRows(db, RunSTPSJoin(db, query, join_options),
                     snapshot->epoch, out);
      return true;
    }

    TopKQuery query;
    TopKAlgorithm algorithm = TopKAlgorithm::kAuto;
    if (!options_ok || fields.size() < 4 ||
        !ParseDouble(fields[1], &query.eps_loc) ||
        !ParseDouble(fields[2], &query.eps_doc) ||
        !ParseSize(fields[3], &query.k) || query.k == 0 ||
        (!algorithm_name.empty() &&
         !ParseTopKAlgorithm(algorithm_name, &algorithm))) {
      out->append(
          "ERR usage: TOPK <eps_loc> <eps_doc> <k> [ALGO <name>] "
          "[THREADS <n>] [SKETCH]\n");
      return true;
    }
    if (query.eps_loc < 0 || query.eps_doc < 0 || query.eps_doc > 1) {
      out->append("ERR thresholds out of range\n");
      return true;
    }
    query.sketch.enabled = sketch;
    query.parallel.num_threads = threads;
    const Status valid = ValidateTopKQuery(query, algorithm);
    if (!valid.ok()) {
      out->append("ERR " + valid.message() + "\n");
      return true;
    }
    AppendPairRows(db, RunTopKSTPSJoin(db, query, algorithm),
                   snapshot->epoch, out);
    return true;
  }

  out->append("ERR unknown command\n");
  return true;
}

}  // namespace stps
