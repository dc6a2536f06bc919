// stps_cli — command-line front end for the library.
//
//   stps_cli generate <kind> <num_users> <out.tsv> [seed]
//       Generate a synthetic dataset (kind: flickr | twitter | geotext |
//       checkin).
//   stps_cli stats <data.tsv>
//       Print Table-1-style descriptive statistics.
//   stps_cli join <data.tsv> <eps_loc> <eps_doc> <eps_u> [--sketch]
//       [--explain] [--mapped] [--threads N] [algorithm]
//       Run STPSJoin (algorithm: auto | sppjc | sppjb | sppjf | sppjd |
//       brute; default auto — the cost-model planner picks). Prints one
//       "userA userB sigma" row per pair. --sketch draws candidates from
//       the sketch layer (same results). --explain prints, as JSON
//       instead of the pairs, the executed plan (kAuto's choice or the
//       explicit algorithm), the planner's candidate table, the planner
//       feedback state and an estimated-vs-actual counter table.
//       --mapped opens a .stpsdb v3 snapshot via mmap (O(1) open, pages
//       on demand). --threads N is the join's thread budget (default 1):
//       an explicit algorithm runs its pool-parallel driver on N
//       workers, auto plans within it (bit-identical results).
//   stps_cli topk <data.tsv> <eps_loc> <eps_doc> <k> [--sketch]
//       [--explain] [--mapped] [variant]
//       Run top-k STPSJoin (variant: auto | f | s | p | brute; default
//       auto).
//   stps_cli tune <data.tsv> <target_size> <eps_loc0> <eps_doc0> <eps_u0>
//       Auto-tune thresholds toward a result-set size.
//   stps_cli serve <data.tsv|data.stpsdb|-> <port> [--workers N]
//       [--queue N] [--publish-every N] [--mapped] [--explain]
//       Long-running concurrent query server over an updatable database
//       (line protocol; see server/server.h). "-" starts empty; inserts
//       auto-publish a new epoch every N mutations (default 256).
//       --mapped serves an mmap'd v3 snapshot read-only: queries page
//       the file on demand; INSERT/DELETE/PUBLISH answer "ERR read-only
//       server". --explain prints the update-layer publish counters
//       (delta vs full publishes, blocks reused/rebuilt) at shutdown.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/parse.h"
#include "common/timer.h"
#include "core/stpsjoin.h"
#include "core/tuning.h"
#include "core/update.h"
#include "planner/feedback.h"
#include "planner/planner.h"
#include "datagen/dataset_stats.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "io/binary.h"
#include "io/tsv.h"
#include "server/server.h"

namespace {

using namespace stps;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  stps_cli generate <flickr|twitter|geotext|checkin> <num_users> "
      "<out.tsv> "
      "[seed]\n"
      "  stps_cli stats <data.tsv>\n"
      "  stps_cli convert <in.tsv|in.stpsdb> <out.tsv|out.stpsdb>\n"
      "  stps_cli join <data.tsv> <eps_loc> <eps_doc> <eps_u> [--sketch] "
      "[--explain] [--mapped] [--threads N] "
      "[auto|sppjc|sppjb|sppjf|sppjd|brute]\n"
      "  stps_cli topk <data.tsv> <eps_loc> <eps_doc> <k> [--sketch] "
      "[--explain] [--mapped] [auto|f|s|p|brute]\n"
      "  stps_cli tune <data.tsv> <target_size> <eps_loc0> <eps_doc0> "
      "<eps_u0>\n"
      "  stps_cli serve <data.tsv|data.stpsdb|-> <port> [--workers N] "
      "[--queue N] [--publish-every N] [--mapped] [--explain]\n");
  return 2;
}

// Strict argv parsing (common/parse.h): the strtod/strtoul family would
// quietly turn a mistyped `join db x y z` into eps = 0.0. Each wrapper
// names the offending argument before the usage text goes out.
bool ParseDoubleArg(const char* what, const char* arg, double* out) {
  if (ParseDouble(arg, out)) return true;
  std::fprintf(stderr, "error: invalid %s: '%s'\n", what, arg);
  return false;
}

bool ParseSizeArg(const char* what, const char* arg, size_t* out) {
  if (ParseSize(arg, out)) return true;
  std::fprintf(stderr, "error: invalid %s: '%s'\n", what, arg);
  return false;
}

bool ParseUint64Arg(const char* what, const char* arg, uint64_t* out) {
  if (ParseUint64(arg, out)) return true;
  std::fprintf(stderr, "error: invalid %s: '%s'\n", what, arg);
  return false;
}

bool ParseIntArg(const char* what, const char* arg, int min_value,
                 int max_value, int* out) {
  if (ParseInt(arg, min_value, max_value, out)) return true;
  std::fprintf(stderr, "error: invalid %s: '%s' (expected %d..%d)\n", what,
               arg, min_value, max_value);
  return false;
}

// An algorithm's unmet preconditions (core/stpsjoin.h) are argv errors
// too: the drivers would abort on them.
bool CheckValid(const Status& status) {
  if (status.ok()) return true;
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  return false;
}

bool ParseKind(const std::string& name, DatasetKind* kind) {
  if (name == "flickr") {
    *kind = DatasetKind::kFlickrLike;
  } else if (name == "twitter") {
    *kind = DatasetKind::kTwitterLike;
  } else if (name == "geotext") {
    *kind = DatasetKind::kGeoTextLike;
  } else if (name == "checkin") {
    *kind = DatasetKind::kCheckinSparse;
  } else {
    return false;
  }
  return true;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool LoadDatabase(const std::string& path, ObjectDatabase* db,
                  bool mapped = false) {
  if (mapped && !HasSuffix(path, ".stpsdb")) {
    std::fprintf(stderr, "error: --mapped requires a .stpsdb snapshot\n");
    return false;
  }
  Result<ObjectDatabase> loaded =
      mapped                       ? ReadBinaryMapped(path)
      : HasSuffix(path, ".stpsdb") ? ReadBinary(path)
                                   : ReadTsv(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return false;
  }
  *db = std::move(loaded).value();
  std::fprintf(stderr, "loaded %zu objects / %zu users from %s%s\n",
               db->num_objects(), db->num_users(), path.c_str(),
               mapped ? " (mmap)" : "");
  return true;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 5) return Usage();
  DatasetKind kind;
  if (!ParseKind(argv[2], &kind)) return Usage();
  size_t num_users = 0;
  uint64_t seed = 42;
  if (!ParseSizeArg("num_users", argv[3], &num_users) || num_users == 0) {
    return Usage();
  }
  const std::string out_path = argv[4];
  if (argc > 5 && !ParseUint64Arg("seed", argv[5], &seed)) return Usage();
  const ObjectDatabase db =
      GenerateDataset(PresetSpec(kind, num_users, seed));
  const Status status = HasSuffix(out_path, ".stpsdb")
                            ? WriteBinary(db, out_path)
                            : WriteTsv(db, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu objects to %s\n", db.num_objects(),
               out_path.c_str());
  return 0;
}

int CmdConvert(int argc, char** argv) {
  if (argc < 4) return Usage();
  ObjectDatabase db;
  if (!LoadDatabase(argv[2], &db)) return 1;
  const std::string out_path = argv[3];
  const Status status = HasSuffix(out_path, ".stpsdb")
                            ? WriteBinary(db, out_path)
                            : WriteTsv(db, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu objects to %s\n", db.num_objects(),
               out_path.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  ObjectDatabase db;
  if (!LoadDatabase(argv[2], &db)) return 1;
  const DatasetStats stats = ComputeDatasetStats(db);
  std::printf("%-12s %9s %7s   %-16s  %-18s  %-17s\n", "Dataset", "Objects",
              "Users", "Tokens/Object", "Objects/Token", "Objects/User");
  std::printf("%s\n", stats.ToTableRow(argv[2]).c_str());
  std::printf("distinct tokens: %zu\n", stats.num_distinct_tokens);
  return 0;
}

// Emits the --explain JSON document: the executed plan, the planner's
// candidate table, the feedback state after the run, and the
// estimated-vs-actual counter comparison.
void PrintExplainJson(const char* command, const PhysicalPlan& plan,
                      const JoinStats& stats, size_t result_pairs,
                      double elapsed_ms) {
  std::printf("{\n  \"command\": \"%s\",\n", command);
  std::printf(
      "  \"plan\": {\"shape\": \"%s\", \"threads\": %d, "
      "\"rtree_fanout\": %d, \"cost_units\": %.6g, \"predicted_ms\": "
      "%.6g},\n",
      PlanShapeName(plan.shape).c_str(), plan.shape.threads,
      plan.rtree_fanout, plan.cost_units, plan.predicted_ms);
  std::printf("  \"considered\": [");
  for (size_t i = 0; i < plan.considered.size(); ++i) {
    const PlanCandidate& c = plan.considered[i];
    std::printf(
        "%s\n    {\"shape\": \"%s\", \"threads\": %d, \"cost_units\": "
        "%.6g, \"predicted_ms\": %.6g}",
        i == 0 ? "" : ",", PlanShapeName(c.shape).c_str(), c.shape.threads,
        c.cost_units, c.predicted_ms);
  }
  std::printf("\n  ],\n");
  const FeedbackSnapshot feedback = PlannerFeedback::Global().Snapshot();
  std::printf(
      "  \"feedback\": {\"join\": {\"runs\": %llu, \"ms_per_unit\": %.6g}, "
      "\"topk\": {\"runs\": %llu, \"ms_per_unit\": %.6g}, \"shapes\": [",
      static_cast<unsigned long long>(feedback.join.runs),
      feedback.join.ms_per_unit,
      static_cast<unsigned long long>(feedback.topk.runs),
      feedback.topk.ms_per_unit);
  for (size_t i = 0; i < feedback.shapes.size(); ++i) {
    const FeedbackSnapshot::Shape& f = feedback.shapes[i];
    std::printf(
        "%s\n    {\"shape\": \"%s\", \"threads\": %d, \"runs\": %llu, "
        "\"ms_per_unit\": %.6g, \"candidate_ratio\": %.6g, \"clamped\": "
        "%llu}",
        i == 0 ? "" : ",", PlanShapeName(f.shape).c_str(), f.shape.threads,
        static_cast<unsigned long long>(f.runs), f.ms_per_unit,
        f.candidate_ratio, static_cast<unsigned long long>(f.clamped));
  }
  std::printf("\n  ]},\n");
  std::printf(
      "  \"estimated\": {\"cells_visited\": %.6g, \"candidate_pairs\": "
      "%.6g, \"text_survivors\": %.6g, \"verified_pairs\": %.6g, "
      "\"walk_cells\": %.6g, \"bounded_walk_cells\": %.6g},\n",
      plan.estimate.cells_visited, plan.estimate.candidate_pairs,
      plan.estimate.text_survivors, plan.estimate.verified_pairs,
      plan.estimate.walk_cells, plan.estimate.bounded_walk_cells);
  std::printf(
      "  \"actual\": {\"cells_visited\": %llu, \"pairs_candidate\": %llu, "
      "\"pairs_verified\": %llu, \"matches_found\": %llu, "
      "\"sketch_candidate_pairs\": %llu, \"planner_estimated_candidates\": "
      "%llu, \"planner_plan_switches\": %llu},\n",
      static_cast<unsigned long long>(stats.cells_visited),
      static_cast<unsigned long long>(stats.pairs_candidate),
      static_cast<unsigned long long>(stats.pairs_verified),
      static_cast<unsigned long long>(stats.matches_found),
      static_cast<unsigned long long>(stats.sketch_candidate_pairs),
      static_cast<unsigned long long>(stats.planner_estimated_candidates),
      static_cast<unsigned long long>(stats.planner_plan_switches));
  std::printf("  \"result_pairs\": %zu,\n  \"elapsed_ms\": %.3f\n}\n",
              result_pairs, elapsed_ms);
}

int CmdJoin(int argc, char** argv) {
  if (argc < 6) return Usage();
  STPSQuery query;
  if (!ParseDoubleArg("eps_loc", argv[3], &query.eps_loc) ||
      !ParseDoubleArg("eps_doc", argv[4], &query.eps_doc) ||
      !ParseDoubleArg("eps_u", argv[5], &query.eps_u)) {
    return Usage();
  }
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kAuto;
  bool explain = false;
  bool mapped = false;
  for (int i = 6; i < argc; ++i) {
    const std::string name = argv[i];
    if (name == "auto") {
      options.algorithm = JoinAlgorithm::kAuto;
    } else if (name == "sppjc") {
      options.algorithm = JoinAlgorithm::kSPPJC;
    } else if (name == "sppjb") {
      options.algorithm = JoinAlgorithm::kSPPJB;
    } else if (name == "sppjf") {
      options.algorithm = JoinAlgorithm::kSPPJF;
    } else if (name == "sppjd") {
      options.algorithm = JoinAlgorithm::kSPPJD;
    } else if (name == "brute") {
      options.algorithm = JoinAlgorithm::kBruteForce;
    } else if (name == "--sketch") {
      query.sketch.enabled = true;
    } else if (name == "--explain") {
      explain = true;
    } else if (name == "--mapped") {
      mapped = true;
    } else if (name == "--threads" && i + 1 < argc) {
      if (!ParseIntArg("threads", argv[++i], 1, 256, &options.threads)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (!CheckValid(ValidateJoinQuery(query, options))) return Usage();
  ObjectDatabase db;
  if (!LoadDatabase(argv[2], &db, mapped)) return 1;
  // Report the executed shape: kAuto's choice, or the explicit one.
  PhysicalPlan plan = PlanSTPSJoin(db, query, options);
  if (options.algorithm != JoinAlgorithm::kAuto) {
    plan = PinPlanShape(db, std::move(plan),
                        ExplicitJoinShape(query, options));
  }
  JoinStats stats;
  Timer timer;
  const auto result = RunSTPSJoin(db, query, options, &stats);
  const double elapsed_ms = timer.ElapsedMillis();
  std::fprintf(stderr, "%s: %zu pairs in %.1f ms\n",
               PlanShapeName(plan.shape).c_str(), result.size(), elapsed_ms);
  if (explain) {
    std::fprintf(stderr, "%s", ExplainPlan(plan, &stats).c_str());
    PrintExplainJson("join", plan, stats, result.size(), elapsed_ms);
    return 0;
  }
  for (const ScoredUserPair& pair : result) {
    std::printf("%s\t%s\t%.6f\n", std::string(db.UserName(pair.a)).c_str(),
                std::string(db.UserName(pair.b)).c_str(), pair.score);
  }
  return 0;
}

int CmdTopK(int argc, char** argv) {
  if (argc < 6) return Usage();
  TopKQuery query;
  if (!ParseDoubleArg("eps_loc", argv[3], &query.eps_loc) ||
      !ParseDoubleArg("eps_doc", argv[4], &query.eps_doc) ||
      !ParseSizeArg("k", argv[5], &query.k) || query.k == 0) {
    return Usage();
  }
  TopKAlgorithm algorithm = TopKAlgorithm::kAuto;
  bool explain = false;
  bool mapped = false;
  for (int i = 6; i < argc; ++i) {
    const std::string name = argv[i];
    if (name == "auto") {
      algorithm = TopKAlgorithm::kAuto;
    } else if (name == "f") {
      algorithm = TopKAlgorithm::kF;
    } else if (name == "s") {
      algorithm = TopKAlgorithm::kS;
    } else if (name == "p") {
      algorithm = TopKAlgorithm::kP;
    } else if (name == "brute") {
      algorithm = TopKAlgorithm::kBruteForce;
    } else if (name == "--sketch") {
      query.sketch.enabled = true;
    } else if (name == "--explain") {
      explain = true;
    } else if (name == "--mapped") {
      mapped = true;
    } else {
      return Usage();
    }
  }
  if (!CheckValid(ValidateTopKQuery(query, algorithm))) return Usage();
  ObjectDatabase db;
  if (!LoadDatabase(argv[2], &db, mapped)) return 1;
  PhysicalPlan plan = PlanTopKSTPSJoin(db, query);
  if (algorithm != TopKAlgorithm::kAuto) {
    plan = PinPlanShape(db, std::move(plan),
                        ExplicitTopKShape(query, algorithm));
  }
  JoinStats stats;
  Timer timer;
  const auto result = RunTopKSTPSJoin(db, query, algorithm, &stats);
  const double elapsed_ms = timer.ElapsedMillis();
  std::fprintf(stderr, "%s: %zu pairs in %.1f ms\n",
               PlanShapeName(plan.shape).c_str(), result.size(), elapsed_ms);
  if (explain) {
    std::fprintf(stderr, "%s", ExplainPlan(plan, &stats).c_str());
    PrintExplainJson("topk", plan, stats, result.size(), elapsed_ms);
    return 0;
  }
  for (const ScoredUserPair& pair : result) {
    std::printf("%s\t%s\t%.6f\n", std::string(db.UserName(pair.a)).c_str(),
                std::string(db.UserName(pair.b)).c_str(), pair.score);
  }
  return 0;
}

int CmdTune(int argc, char** argv) {
  if (argc < 7) return Usage();
  TuningOptions options;
  if (!ParseSizeArg("target_size", argv[3], &options.target_size) ||
      !ParseDoubleArg("eps_loc0", argv[4], &options.initial.eps_loc) ||
      !ParseDoubleArg("eps_doc0", argv[5], &options.initial.eps_doc) ||
      !ParseDoubleArg("eps_u0", argv[6], &options.initial.eps_u)) {
    return Usage();
  }
  if (options.target_size == 0 || options.initial.eps_doc <= 0.0 ||
      options.initial.eps_u <= 0.0) {
    std::fprintf(stderr,
                 "error: tune requires target_size, eps_doc0 and eps_u0 "
                 "> 0\n");
    return Usage();
  }
  ObjectDatabase db;
  if (!LoadDatabase(argv[2], &db)) return 1;
  const TuningResult result = TuneThresholds(db, options);
  std::fprintf(stderr,
               "initial join (planner): %.1f ms; tuning: %zu iterations in %.1f "
               "ms; %s\n",
               result.initial_join_millis, result.iterations,
               result.tuning_millis,
               result.converged ? "converged" : "NOT converged");
  std::printf("# eps_loc=%.6f eps_doc=%.4f eps_u=%.4f -> %zu pairs\n",
              result.thresholds.eps_loc, result.thresholds.eps_doc,
              result.thresholds.eps_u, result.result.size());
  for (const ScoredUserPair& pair : result.result) {
    std::printf("%s\t%s\t%.6f\n", std::string(db.UserName(pair.a)).c_str(),
                std::string(db.UserName(pair.b)).c_str(), pair.score);
  }
  return 0;
}

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true); }

// serve: long-running concurrent query server (see server/server.h for
// the line protocol). "-" starts with an empty database; otherwise the
// dataset is loaded and seeded into the updatable store as epoch 1.
// Prints "LISTENING <port>" on stdout once ready. Stops on SIGINT/
// SIGTERM or a client's SHUTDOWN command.
int CmdServe(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string data_path = argv[2];
  ServerOptions server_options;
  if (!ParseIntArg("port", argv[3], 0, 65535, &server_options.port)) {
    return Usage();
  }
  size_t publish_every = 256;
  bool mapped = false;
  bool explain = false;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workers" && i + 1 < argc) {
      if (!ParseIntArg("workers", argv[++i], 1, 64,
                       &server_options.num_workers)) {
        return Usage();
      }
    } else if (flag == "--queue" && i + 1 < argc) {
      size_t queue = 0;
      if (!ParseSizeArg("queue", argv[++i], &queue) || queue == 0) {
        return Usage();
      }
      server_options.max_pending = queue;
    } else if (flag == "--publish-every" && i + 1 < argc) {
      if (!ParseSizeArg("publish-every", argv[++i], &publish_every)) {
        return Usage();
      }
    } else if (flag == "--mapped") {
      mapped = true;
    } else if (flag == "--explain") {
      explain = true;
    } else {
      return Usage();
    }
  }

  UpdateOptions update_options;
  update_options.publish_threshold = publish_every;
  UpdatableDatabase updatable(update_options);
  std::unique_ptr<QueryServer> server;
  size_t serve_objects = 0;
  if (mapped) {
    // Read-only over the mmap'd snapshot: the file pages in on demand,
    // nothing is copied, and write commands are rejected.
    if (data_path == "-") {
      std::fprintf(stderr, "error: --mapped requires a .stpsdb snapshot\n");
      return 1;
    }
    auto snapshot = std::make_shared<DatabaseSnapshot>();
    snapshot->epoch = 1;
    if (!LoadDatabase(data_path, &snapshot->db, /*mapped=*/true)) return 1;
    serve_objects = snapshot->db.num_objects();
    server = std::make_unique<QueryServer>(std::move(snapshot),
                                           server_options);
  } else {
    if (data_path != "-") {
      ObjectDatabase db;
      if (!LoadDatabase(data_path, &db)) return 1;
      updatable.SeedFrom(db);
    }
    serve_objects = updatable.live_objects();
    server = std::make_unique<QueryServer>(&updatable, server_options);
  }

  const Status status = server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %d\n", server->port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "serving epoch %llu (%zu objects%s) on %s:%d — SHUTDOWN "
               "command or SIGINT stops\n",
               static_cast<unsigned long long>(mapped ? 1 : updatable.epoch()),
               serve_objects, mapped ? ", read-only mmap" : "",
               server_options.host.c_str(), server->port());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!server->shutdown_requested() && !g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server->Shutdown();
  const ServerStats stats = server->stats();
  std::fprintf(stderr,
               "shut down cleanly: %llu connections (%llu rejected), %llu "
               "requests (%llu failed), final epoch %llu\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.connections_rejected),
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.requests_failed),
               static_cast<unsigned long long>(mapped ? 1 : updatable.epoch()));
  if (explain && !mapped) {
    std::fprintf(stderr, "%s",
                 FormatUpdateStats(updatable.stats()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "convert") return CmdConvert(argc, argv);
  if (command == "join") return CmdJoin(argc, argv);
  if (command == "topk") return CmdTopK(argc, argv);
  if (command == "tune") return CmdTune(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  return Usage();
}
