// stps_perfbench: the driver behind perfbench/run.py.
//
//   stps_perfbench prepare --workload W --seed N --snapshot F [--trace 0|1]
//       generates the workload's dataset from the seed and writes it as a
//       v3 snapshot to F (input generation, kept out of the measured
//       process so peak RSS and set-up time exclude it).
//   stps_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --snapshot F
//       loads F and drives the workload for S seconds.
//
// Both print one raw JSON report on stdout; run.py turns the reports into
// metrics and checks.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/parse.h"
#include "bench_common.h"
#include "spatial/batch.h"

namespace perfbench {

const WorkloadSpec* FindWorkload(std::string_view name) {
  static const WorkloadSpec kWorkloads[] = {
      {"sweep_sparse", stps::DatasetKind::kCheckinSparse, 1600},
      {"serve_mixed", stps::DatasetKind::kCheckinSparse, 3200},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void WriteBuildInfo(JsonWriter* json) {
  json->Key("build");
  json->BeginObject();
  json->Field("compiler", __VERSION__);
  json->Field("build_type", PERFBENCH_BUILD_TYPE);
  json->FieldBool("avx2_dispatch", stps::BatchKernelsUseAvx2());
#if defined(__POPCNT__)
  json->FieldBool("popcnt", true);
#else
  json->FieldBool("popcnt", false);
#endif
  json->EndObject();
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: stps_perfbench <prepare|run> --workload W --seed N "
               "--snapshot F [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::RunOptions;
  if (argc < 2) return Usage();
  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, so later set-ups in one process reuse heap pages the first one
  // faulted in, and set-up time depends on how many came before.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::string_view mode = argv[1];
  RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = perfbench::FindWorkload(value);
      if (options.workload == nullptr) return Usage();
    } else if (flag == "--seed" && stps::ParseUint64(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && stps::ParseUint64(value, &number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--snapshot") {
      options.snapshot = std::string(value);
    } else {
      return Usage();
    }
  }
  if (options.workload == nullptr || options.snapshot.empty()) return Usage();

  perfbench::JsonWriter json;
  int rc = 0;
  if (mode == "prepare") {
    rc = perfbench::RunPrepare(options, &json);
  } else if (mode == "run" && options.seconds > 0) {
    rc = options.workload->name == "serve_mixed"
             ? perfbench::RunServe(options, &json)
             : perfbench::RunSweep(options, &json);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  std::printf("%s\n", json.str().c_str());
  return 0;
}
