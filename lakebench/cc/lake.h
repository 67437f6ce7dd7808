// Seeded inputs and lake plumbing shared by every workload: the taxi
// fact table, the zones dimension, nightly batches, and copying a lake so
// each measured session starts from the same bytes.
#ifndef LAKEBENCH_LAKE_H_
#define LAKEBENCH_LAKE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "columnar/table.h"
#include "common/result.h"
#include "core/bauplan.h"
#include "storage/object_store.h"

namespace lakebench {

/// Every workload's data sizes; `--small` shrinks them for tests.
struct Sizes {
  int64_t taxi_rows = 0;         // base fact table, 12 monthly partitions
  int64_t batch_rows = 0;        // nightly_refresh append per cycle
  int64_t session_ops = 0;       // ops in one replayed session
};

/// Fan-out of the MakeWideTaxiPipeline both pipeline workloads run.
inline constexpr int kFanOut = 4;

Sizes SizesFor(const std::string& workload, bool small);

/// The lake's schema names are fixed by MakeWideTaxiPipeline.
inline constexpr const char* kTaxiTable = "taxi_table";
inline constexpr const char* kZonesTable = "zones";
inline constexpr int64_t kZoneCount = 265;
/// First instant of the base data (2019-01-01) and of the nightly
/// batches (2020-01-01, one day per cycle).
inline constexpr int64_t kBaseStartMicros = 1546300800ll * 1000000;
inline constexpr int64_t kBatchStartMicros = 1577836800ll * 1000000;
inline constexpr int64_t kDayMicros = 86400ll * 1000000;

/// Taxi trips in pickup-time order over [start, start + span): trip ids
/// rise with time (so zone maps prune point lookups), locations are
/// Zipf-popular, and fares/distances are dyadic rationals so any
/// summation order gives the same bits — the scalar oracle can then be
/// compared byte for byte.
bauplan::columnar::Table GenerateTrips(uint64_t seed, int64_t rows,
                                       int64_t first_trip_id,
                                       int64_t start_micros,
                                       int64_t span_micros);

/// zone_id 1..265 with a borough and a name.
bauplan::columnar::Table GenerateZones(uint64_t seed);

/// Platform options every workload uses: the S3-class latency model
/// (defaults of storage::LatencyModel), default cache budgets.
bauplan::core::BauplanOptions PlatformOptions();

/// Creates the month-partitioned taxi table and the zones table on
/// `main` and loads them. Returns the serialized bytes written.
bauplan::Result<uint64_t> LoadBaseTables(bauplan::core::Bauplan& bp,
                                         const bauplan::columnar::Table& taxi,
                                         const bauplan::columnar::Table& zones);

/// Deep copy of every object in `src`.
std::unique_ptr<bauplan::storage::MemoryObjectStore> CopyStore(
    const bauplan::storage::MemoryObjectStore& src);

}  // namespace lakebench

#endif  // LAKEBENCH_LAKE_H_
