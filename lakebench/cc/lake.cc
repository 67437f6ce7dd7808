#include "lake.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "columnar/builder.h"
#include "columnar/serialize.h"
#include "common/rng.h"
#include "table/partition.h"

namespace lakebench {

using bauplan::columnar::DoubleBuilder;
using bauplan::columnar::Int64Builder;
using bauplan::columnar::Schema;
using bauplan::columnar::StringBuilder;
using bauplan::columnar::Table;
using bauplan::columnar::TypeId;

Sizes SizesFor(const std::string& workload, bool small) {
  Sizes s;
  if (workload == "analyst_queries") {
    s.taxi_rows = small ? 20000 : 200000;
    s.session_ops = small ? 30 : 250;
  } else if (workload == "pipeline_devloop") {
    s.taxi_rows = small ? 20000 : 60000;
    s.session_ops = small ? 6 : 100;
  } else {  // nightly_refresh
    s.taxi_rows = small ? 5000 : 20000;
    s.batch_rows = small ? 100 : 200;
    s.session_ops = small ? 3 : 100;
  }
  return s;
}

Table GenerateTrips(uint64_t seed, int64_t rows, int64_t first_trip_id,
                    int64_t start_micros, int64_t span_micros) {
  bauplan::Rng rng(seed);
  bauplan::ZipfDistribution zones(kZoneCount, 1.05);
  Int64Builder trip_id, pickup_at(TypeId::kTimestamp), pickup, dropoff,
      passengers;
  DoubleBuilder distance, fare;
  trip_id.Reserve(rows);
  pickup_at.Reserve(rows);
  const int64_t slot = std::max<int64_t>(1, span_micros / std::max<int64_t>(rows, 1));
  for (int64_t i = 0; i < rows; ++i) {
    trip_id.Append(first_trip_id + i);
    pickup_at.Append(start_micros + i * slot + rng.UniformInt(0, slot - 1));
    pickup.Append(static_cast<int64_t>(zones.Sample(rng)));
    dropoff.Append(static_cast<int64_t>(zones.Sample(rng)));
    if (rng.Bernoulli(0.01)) {
      passengers.AppendNull();
    } else {
      passengers.Append(
          std::min<int64_t>(6, 1 + static_cast<int64_t>(rng.Exponential(1.2))));
    }
    // Sixteenths of a mile and quarter dollars: exact in binary.
    int64_t sixteenths = std::clamp<int64_t>(
        std::llround(16.0 * rng.LogNormal(std::log(2.2), 0.8)), 1, 1600);
    distance.Append(static_cast<double>(sixteenths) / 16.0);
    int64_t quarters = 12 + sixteenths * 5 / 8 + rng.UniformInt(0, 8);
    fare.Append(static_cast<double>(quarters) / 4.0);
  }
  return Table::Make(
             Schema({{"trip_id", TypeId::kInt64, false},
                     {"pickup_at", TypeId::kTimestamp, false},
                     {"pickup_location_id", TypeId::kInt64, false},
                     {"dropoff_location_id", TypeId::kInt64, false},
                     {"passenger_count", TypeId::kInt64, true},
                     {"trip_distance", TypeId::kDouble, false},
                     {"fare", TypeId::kDouble, false}}),
             {trip_id.Finish(), pickup_at.Finish(), pickup.Finish(),
              dropoff.Finish(), passengers.Finish(), distance.Finish(),
              fare.Finish()})
      .ValueOrDie();
}

Table GenerateZones(uint64_t seed) {
  static const char* kBoroughs[] = {"Bronx",  "Brooklyn",      "EWR",
                                    "Manhattan", "Queens", "Staten Island"};
  bauplan::Rng rng(seed);
  Int64Builder id;
  StringBuilder borough, name;
  for (int64_t z = 1; z <= kZoneCount; ++z) {
    id.Append(z);
    borough.Append(kBoroughs[rng.UniformInt(0, 5)]);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "zone_%03lld", static_cast<long long>(z));
    name.Append(buf);
  }
  return Table::Make(Schema({{"zone_id", TypeId::kInt64, false},
                             {"borough", TypeId::kString, false},
                             {"zone_name", TypeId::kString, false}}),
                     {id.Finish(), borough.Finish(), name.Finish()})
      .ValueOrDie();
}

bauplan::core::BauplanOptions PlatformOptions() {
  bauplan::core::BauplanOptions options;
  options.lake_latency = bauplan::storage::LatencyModel();  // S3-class
  return options;
}

bauplan::Result<uint64_t> LoadBaseTables(bauplan::core::Bauplan& bp,
                                         const Table& taxi,
                                         const Table& zones) {
  using bauplan::table::PartitionSpec;
  using bauplan::table::Transform;
  BAUPLAN_RETURN_NOT_OK(bp.CreateTable(
      "main", kTaxiTable, taxi.schema(),
      PartitionSpec({{"pickup_at", Transform::kMonth, 0}})));
  BAUPLAN_RETURN_NOT_OK(bp.WriteTable("main", kTaxiTable, taxi));
  BAUPLAN_RETURN_NOT_OK(bp.CreateTable("main", kZonesTable, zones.schema()));
  BAUPLAN_RETURN_NOT_OK(bp.WriteTable("main", kZonesTable, zones));
  return static_cast<uint64_t>(bauplan::columnar::SerializeTable(taxi).size() +
                               bauplan::columnar::SerializeTable(zones).size());
}

std::unique_ptr<bauplan::storage::MemoryObjectStore> CopyStore(
    const bauplan::storage::MemoryObjectStore& src) {
  auto dst = std::make_unique<bauplan::storage::MemoryObjectStore>();
  auto objects = src.List("");
  for (const auto& meta : objects.ValueOrDie()) {
    (void)dst->Put(meta.key, src.Get(meta.key).ValueOrDie());
  }
  return dst;
}

}  // namespace lakebench
