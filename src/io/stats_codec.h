// Serialization of the PlannerStats block. The v3 arena writes and reads
// it as a section (io/snapshot_v3.cc); the v2 stream reader decodes the
// same block (io/binary.cc). The field order is on-disk contract for
// both formats: 3 dataset u64, 6 dataset f64, 17 x 3 occupancy u64,
// extent_x/y f64, total_token_occurrences u64, token_collision_rate /
// token_top_frequency f64 — 65 8-byte fields (kPlannerStatsBlockSize).
//
// Writer needs:  void U64(uint64_t), void F64(double)
// Reader needs:  bool U64(uint64_t*), bool F64(double*)

#ifndef STPS_IO_STATS_CODEC_H_
#define STPS_IO_STATS_CODEC_H_

#include <cstdint>

#include "planner/planner_stats.h"

namespace stps {

template <typename W>
void WriteStats(W* writer, const PlannerStats& s) {
  writer->U64(s.dataset.num_objects);
  writer->U64(s.dataset.num_users);
  writer->U64(s.dataset.num_distinct_tokens);
  writer->F64(s.dataset.tokens_per_object_mean);
  writer->F64(s.dataset.tokens_per_object_stddev);
  writer->F64(s.dataset.objects_per_token_mean);
  writer->F64(s.dataset.objects_per_token_stddev);
  writer->F64(s.dataset.objects_per_user_mean);
  writer->F64(s.dataset.objects_per_user_stddev);
  for (const OccupancyLevel& level : s.occupancy) {
    writer->U64(level.occupied_cells);
    writer->U64(level.sum_sq_counts);
    writer->U64(level.max_cell_count);
  }
  writer->F64(s.extent_x);
  writer->F64(s.extent_y);
  writer->U64(s.total_token_occurrences);
  writer->F64(s.token_collision_rate);
  writer->F64(s.token_top_frequency);
}

template <typename R>
bool ReadStats(R* reader, PlannerStats* s) {
  uint64_t num_objects = 0, num_users = 0, num_tokens = 0;
  bool ok = reader->U64(&num_objects) && reader->U64(&num_users) &&
            reader->U64(&num_tokens) &&
            reader->F64(&s->dataset.tokens_per_object_mean) &&
            reader->F64(&s->dataset.tokens_per_object_stddev) &&
            reader->F64(&s->dataset.objects_per_token_mean) &&
            reader->F64(&s->dataset.objects_per_token_stddev) &&
            reader->F64(&s->dataset.objects_per_user_mean) &&
            reader->F64(&s->dataset.objects_per_user_stddev);
  if (!ok) return false;
  s->dataset.num_objects = static_cast<size_t>(num_objects);
  s->dataset.num_users = static_cast<size_t>(num_users);
  s->dataset.num_distinct_tokens = static_cast<size_t>(num_tokens);
  for (OccupancyLevel& level : s->occupancy) {
    if (!reader->U64(&level.occupied_cells) ||
        !reader->U64(&level.sum_sq_counts) ||
        !reader->U64(&level.max_cell_count)) {
      return false;
    }
  }
  return reader->F64(&s->extent_x) && reader->F64(&s->extent_y) &&
         reader->U64(&s->total_token_occurrences) &&
         reader->F64(&s->token_collision_rate) &&
         reader->F64(&s->token_top_frequency);
}

}  // namespace stps

#endif  // STPS_IO_STATS_CODEC_H_
