// QueryServer end-to-end tests: an in-process server on an ephemeral
// loopback port, exercised by real sockets. Covers protocol correctness
// (responses match direct library calls bit-for-bit), update visibility
// across PUBLISH epochs, concurrent clients, admission-control
// backpressure, and graceful shutdown.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/stpsjoin.h"
#include "core/update.h"
#include "io/binary.h"
#include "test_util.h"

namespace stps {
namespace {

// Minimal blocking line-protocol client with poll-based read timeouts.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool SendLine(const std::string& line) {
    const std::string data = line + "\n";
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one '\n'-terminated line (without the newline). Empty string on
  // timeout, error, or peer close with nothing buffered.
  std::string ReadLine(int timeout_ms = 5000) {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Sends a request and reads the "OK <n> <epoch>" header plus n rows.
  std::vector<std::string> Query(const std::string& request) {
    std::vector<std::string> lines;
    if (!SendLine(request)) return lines;
    const std::string header = ReadLine();
    lines.push_back(header);
    size_t n_rows = 0;
    if (std::sscanf(header.c_str(), "OK %zu", &n_rows) == 1) {
      for (size_t i = 0; i < n_rows; ++i) lines.push_back(ReadLine());
    }
    return lines;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// The rows the server should emit for `pairs`, in the server's format.
std::vector<std::string> ExpectedRows(const ObjectDatabase& db,
                                      const std::vector<ScoredUserPair>& pairs,
                                      uint64_t epoch) {
  std::vector<std::string> rows;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "OK %zu %llu", pairs.size(),
                static_cast<unsigned long long>(epoch));
  rows.push_back(buffer);
  for (const ScoredUserPair& pair : pairs) {
    std::snprintf(buffer, sizeof(buffer), " %.6f", pair.score);
    rows.push_back(std::string(db.UserName(pair.a)) + " " +
                   std::string(db.UserName(pair.b)) + buffer);
  }
  return rows;
}

class ServerTest : public ::testing::Test {
 protected:
  void SeedRandom(size_t num_users = 16, uint64_t seed = 5) {
    testing_util::RandomDbSpec spec;
    spec.num_users = num_users;
    spec.seed = seed;
    db_.SeedFrom(testing_util::BuildRandomDatabase(spec));
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<QueryServer>(&db_, options);
    const Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.message();
    ASSERT_GT(server_->port(), 0);
  }

  UpdatableDatabase db_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, PingEpochAndUnknownCommand) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("PING"));
  EXPECT_EQ(client.ReadLine(), "OK pong");
  ASSERT_TRUE(client.SendLine("EPOCH"));
  EXPECT_EQ(client.ReadLine(), "OK 0");
  ASSERT_TRUE(client.SendLine("FROBNICATE"));
  EXPECT_EQ(client.ReadLine(), "ERR unknown command");
  ASSERT_TRUE(client.SendLine("QUIT"));
  EXPECT_EQ(client.ReadLine(), "OK bye");
}

TEST_F(ServerTest, JoinTopKProbeMatchLibraryCalls) {
  SeedRandom();
  StartServer();
  const auto snapshot = db_.snapshot();
  const ObjectDatabase& db = snapshot->db;

  STPSQuery join;
  join.eps_loc = 0.15;
  join.eps_doc = 0.25;
  join.eps_u = 0.2;
  JoinOptions join_options;
  join_options.algorithm = JoinAlgorithm::kSPPJF;
  const auto join_expected = ExpectedRows(
      db, RunSTPSJoin(db, join, join_options), snapshot->epoch);

  TopKQuery topk;
  topk.eps_loc = 0.15;
  topk.eps_doc = 0.25;
  topk.k = 5;
  const auto topk_expected = ExpectedRows(
      db, RunTopKSTPSJoin(db, topk, TopKAlgorithm::kP), snapshot->epoch);

  STPSQuery probe_query = join;
  const auto probe_expected = ExpectedRows(
      db, FindSimilarUsers(db, 0, probe_query), snapshot->epoch);

  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Query("JOIN 0.15 0.25 0.2 ALGO sppjf"), join_expected);
  // kAuto, sketch, and threaded runs return identical rows (exactness).
  EXPECT_EQ(client.Query("JOIN 0.15 0.25 0.2"), join_expected);
  EXPECT_EQ(client.Query("JOIN 0.15 0.25 0.2 ALGO sppjb SKETCH THREADS 2"),
            join_expected);
  // S-PPJ-B needs only eps_loc > 0; zero textual and similarity
  // thresholds make a valid all-pairs query.
  JoinOptions b_options;
  b_options.algorithm = JoinAlgorithm::kSPPJB;
  EXPECT_EQ(client.Query("JOIN 0.001 0 0 ALGO sppjb"),
            ExpectedRows(db, RunSTPSJoin(db, {0.001, 0.0, 0.0}, b_options),
                         snapshot->epoch));
  EXPECT_EQ(client.Query("TOPK 0.15 0.25 5 ALGO p"), topk_expected);
  EXPECT_EQ(client.Query("TOPK 0.15 0.25 5 SKETCH"), topk_expected);
  const std::string probe_request =
      "PROBE " + std::string(db.UserName(0)) + " 0.15 0.25 0.2";
  EXPECT_EQ(client.Query(probe_request), probe_expected);
}

TEST_F(ServerTest, MalformedRequestsGetUsageErrors) {
  SeedRandom(8);
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const auto expect_err = [&client](const std::string& request) {
    ASSERT_TRUE(client.SendLine(request));
    const std::string response = client.ReadLine();
    EXPECT_EQ(response.rfind("ERR", 0), 0u) << request << " -> " << response;
  };
  expect_err("JOIN abc 0.2 0.3");          // non-numeric field
  expect_err("JOIN 0.1 0.2");               // missing eps_u
  expect_err("JOIN 0.1 2.0 0.5");           // eps_doc out of range
  expect_err("JOIN 0.1 0 0 ALGO sppjf");    // filter algo needs eps_doc > 0
  expect_err("JOIN 0.1 0.2 0.3 THREADS 0"); // threads below minimum
  expect_err("JOIN 0.1 0.2 0.3 BOGUS");     // unknown option token
  // Non-finite thresholds must be parse errors: NaN compares false
  // against every range bound, so letting it through would reach the
  // STPS_CHECKs inside the join algorithms and abort the server.
  expect_err("JOIN 1 nan 1 ALGO sppjf");
  expect_err("JOIN inf 0.2 0.3");
  expect_err("TOPK nan 0.2 5");
  expect_err("INSERT u nan nan -");
  expect_err("TOPK 0.1 0.2 0");             // k = 0
  expect_err("TOPK 0.1 0.2 -3");            // negative k must not wrap
  expect_err("PROBE nosuchuser 0.1 0.2 0.3");
  expect_err("PROBE nosuchuser -0.1 0.2 0.3");  // thresholds out of range
  expect_err("PROBE nosuchuser 0.1 2.0 0.3");   // eps_doc > 1
  expect_err("DELETE nosuchuser");
  expect_err("INSERT onlyuser");            // too few fields
  expect_err("INSERT u 1.0zz 2.0 a,b");     // trailing garbage in number
  expect_err("SLEEP notanumber");
  // In-range thresholds that fail the chosen algorithm's preconditions:
  // a grid algorithm, or the sketch route, with eps_loc = 0 would abort
  // the whole server inside the driver.
  for (const char* request :
       {"JOIN 0 0.5 0.5 ALGO sppjf", "JOIN 0 0.5 0.5 ALGO sppjb",
        "JOIN 0 0.5 0.5 ALGO sppjc", "JOIN 0 0.5 0.5 ALGO sppjd SKETCH",
        "TOPK 0 0.5 5 ALGO f", "TOPK 0 0.5 5 ALGO s", "TOPK 0 0.5 5 ALGO p"}) {
    expect_err(request);
    ASSERT_TRUE(client.SendLine("PING"));
    EXPECT_EQ(client.ReadLine(), "OK pong") << request;
  }
  // The connection still works after every error.
  ASSERT_TRUE(client.SendLine("PING"));
  EXPECT_EQ(client.ReadLine(), "OK pong");
}

TEST_F(ServerTest, InsertDeletePublishEpochVisibility) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.SendLine("INSERT alice 0.10 0.10 coffee,park"));
  EXPECT_EQ(client.ReadLine(), "OK 1 0");
  ASSERT_TRUE(client.SendLine("INSERT bob 0.11 0.10 coffee 3.5"));
  EXPECT_EQ(client.ReadLine(), "OK 2 0");
  // Queries still see the empty epoch-0 snapshot.
  EXPECT_EQ(client.Query("JOIN 0.2 0.5 0.3").front(), "OK 0 0");

  ASSERT_TRUE(client.SendLine("PUBLISH"));
  // Reply format: OK <epoch> <delta|full|unchanged> <ms>. The first
  // publish is always a full rebuild (epoch 0 has no users to splice).
  std::string publish_reply = client.ReadLine();
  EXPECT_EQ(publish_reply.rfind("OK 1 full ", 0), 0u) << publish_reply;
  const auto rows = client.Query("JOIN 0.2 0.5 0.3");
  ASSERT_EQ(rows.size(), 2u);  // alice-bob match at these thresholds
  EXPECT_EQ(rows[0], "OK 1 1");
  EXPECT_EQ(rows[1].rfind("alice bob ", 0), 0u) << rows[1];

  ASSERT_TRUE(client.SendLine("DELETE alice"));
  EXPECT_EQ(client.ReadLine(), "OK 1 1");
  ASSERT_TRUE(client.SendLine("DELETE alice"));
  EXPECT_EQ(client.ReadLine(), "ERR unknown user");
  ASSERT_TRUE(client.SendLine("PUBLISH"));
  // Deleting 1 of 2 users exceeds the default dirty fraction -> full.
  publish_reply = client.ReadLine();
  EXPECT_EQ(publish_reply.rfind("OK 2 full ", 0), 0u) << publish_reply;
  EXPECT_EQ(client.Query("JOIN 0.2 0.5 0.3").front(), "OK 0 2");
  // A clean PUBLISH reports the existing epoch without bumping it.
  ASSERT_TRUE(client.SendLine("PUBLISH"));
  publish_reply = client.ReadLine();
  EXPECT_EQ(publish_reply, "OK 2 unchanged 0.000") << publish_reply;

  ASSERT_TRUE(client.SendLine("STATS"));
  const std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("epoch=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("inserted=2"), std::string::npos) << stats;
}

TEST_F(ServerTest, ServesManyConcurrentClients) {
  SeedRandom(12, /*seed=*/9);
  StartServer();
  const auto snapshot = db_.snapshot();
  STPSQuery join;
  join.eps_loc = 0.15;
  join.eps_doc = 0.25;
  join.eps_u = 0.2;
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kSPPJF;
  const auto join_expected = ExpectedRows(
      snapshot->db, RunSTPSJoin(snapshot->db, join, options), snapshot->epoch);

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &failures, &join_expected] {
      TestClient client(server_->port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        const std::string request = (c % 2 == 0)
                                        ? "JOIN 0.15 0.25 0.2 ALGO sppjf"
                                        : "JOIN 0.15 0.25 0.2 ALGO brute";
        if (client.Query(request) != join_expected) {
          failures.fetch_add(1);
          return;
        }
        if (!client.SendLine("PING") || client.ReadLine() != "OK pong") {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // The served counter is bumped after the response send, so a client can
  // observe its reply before the worker's increment: poll briefly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server_->stats().requests_served <
             static_cast<uint64_t>(kClients * 6) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.requests_served, static_cast<uint64_t>(kClients * 6));
}

TEST_F(ServerTest, AdmissionControlRejectsWhenSaturated) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_pending = 1;
  StartServer(options);

  // Occupy the only worker.
  TestClient sleeper(server_->port());
  ASSERT_TRUE(sleeper.connected());
  ASSERT_TRUE(sleeper.SendLine("SLEEP 1500"));

  // Give the worker time to pick the sleeper up, then flood. One
  // connection fits the pending queue; the rest must be turned away.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int rejected = 0;
  std::vector<std::unique_ptr<TestClient>> flood;
  for (int i = 0; i < 5; ++i) {
    flood.push_back(std::make_unique<TestClient>(server_->port()));
    ASSERT_TRUE(flood.back()->connected());
    // A rejected connection receives "ERR busy" immediately.
    const std::string response = flood.back()->ReadLine(400);
    if (response == "ERR busy") ++rejected;
  }
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(sleeper.ReadLine(/*timeout_ms=*/5000), "OK slept");
  EXPECT_GE(server_->stats().connections_rejected,
            static_cast<uint64_t>(rejected));
}

TEST_F(ServerTest, GracefulShutdownDrainsAndStopsAccepting) {
  SeedRandom(8);
  StartServer();
  const int port = server_->port();

  TestClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("SHUTDOWN"));
  EXPECT_EQ(client.ReadLine(), "OK shutting down");
  EXPECT_TRUE(server_->shutdown_requested());
  server_->WaitForShutdownRequest();  // returns immediately once flagged
  server_->Shutdown();
  server_->Shutdown();  // idempotent

  // The listening socket is gone: new connections are refused.
  TestClient late(port);
  EXPECT_FALSE(late.connected());
}

TEST_F(ServerTest, QueriesKeepTheirSnapshotAcrossConcurrentWrites) {
  SeedRandom(10, /*seed=*/21);
  StartServer();
  std::atomic<bool> writer_done{false};
  std::thread writer([this, &writer_done] {
    // Fixed work so the test asserts real epoch churn regardless of how
    // fast the query loop opposite runs: 50 inserts, publish every 5.
    for (int i = 1; i <= 50; ++i) {
      RawObject object;
      object.user = "newuser" + std::to_string(i % 4);
      object.loc = {0.4, 0.4};
      object.keywords = {"kw1", "kw2"};
      db_.InsertObject(object);
      if (i % 5 == 0) db_.Publish();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writer_done.store(true);
  });

  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  int rounds = 0;
  // Query throughout the writer's lifetime (and at least a few times).
  while (!writer_done.load() || rounds < 5) {
    const auto rows = client.Query("JOIN 0.15 0.25 0.2 ALGO sppjf");
    ASSERT_FALSE(rows.empty());
    // Each response is internally consistent: the header row count equals
    // the number of rows actually sent (already enforced by Query's
    // reader — a short read would surface as an empty trailing line).
    for (size_t i = 1; i < rows.size(); ++i) EXPECT_FALSE(rows[i].empty());
    EXPECT_EQ(rows.front().rfind("OK ", 0), 0u) << rows.front();
    ++rounds;
  }
  writer.join();
  // SeedFrom published epoch 1; the writer's publishes moved it to 11.
  EXPECT_GE(db_.epoch(), 11u);
}

TEST(ReadOnlyServerTest, ServesMappedSnapshotAndRejectsWrites) {
  // End-to-end mmap serving: write a v3 snapshot, open it with mmap, and
  // serve it read-only. Queries must match direct library calls on the
  // mapped database; every write command must answer "ERR read-only".
  testing_util::RandomDbSpec spec;
  spec.num_users = 12;
  spec.seed = 31;
  const ObjectDatabase original = testing_util::BuildRandomDatabase(spec);
  const std::string path =
      std::string(::testing::TempDir()) + "/served.stpsdb";
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> mapped = ReadBinaryMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto snapshot = std::make_shared<DatabaseSnapshot>();
  snapshot->epoch = 7;
  snapshot->db = std::move(mapped).value();
  const ObjectDatabase& db = snapshot->db;
  QueryServer server(snapshot);
  EXPECT_TRUE(server.read_only());
  const Status status = server.Start();
  ASSERT_TRUE(status.ok()) << status.message();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("EPOCH"));
  EXPECT_EQ(client.ReadLine(), "OK 7");

  STPSQuery join;
  join.eps_loc = 0.15;
  join.eps_doc = 0.25;
  join.eps_u = 0.2;
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kSPPJF;
  EXPECT_EQ(client.Query("JOIN 0.15 0.25 0.2 ALGO sppjf"),
            ExpectedRows(db, RunSTPSJoin(db, join, options), 7));

  for (const char* request :
       {"INSERT u 0.1 0.2 kw1", "DELETE user0", "PUBLISH"}) {
    ASSERT_TRUE(client.SendLine(request));
    EXPECT_EQ(client.ReadLine(), "ERR read-only server") << request;
  }

  ASSERT_TRUE(client.SendLine("STATS"));
  const std::string stats = client.ReadLine();
  EXPECT_EQ(stats.rfind("OK epoch=7 ", 0), 0u) << stats;

  server.Shutdown();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stps
