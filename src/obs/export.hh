/**
 * @file
 * The artifact export sink (DESIGN.md §8): serializes a BenchArtifact —
 * manifest + paper-vs-measured comparisons + data series + the merged
 * metrics snapshot — as the machine-readable BENCH_<id>.json every
 * bench binary drops next to its text tables.
 *
 * This module is the repository's single file-output point: the
 * boreas_lint `raw-file-output` rule flags std::ofstream / fopen
 * anywhere else under src/, so artifacts (and their schema) stay in
 * one auditable place.
 *
 * Schema (schema key "boreas-bench-v1"):
 *   {
 *     "schema": "boreas-bench-v1",
 *     "id": "<experiment>",
 *     "manifest": { experiment, scale, threads, seed, run_hash?,
 *                   wall_s, config{...} },
 *     "paper_vs_measured": [ {quantity, paper, measured}, ... ],
 *     "series": [ {name, columns[...], rows[[...], ...]}, ... ],
 *     "timings": { "<histogram>": {count, total_us, mean_us, min_us,
 *                                  max_us, buckets[[ub, n], ...]} },
 *     "counters": { "<counter>": n, ... },
 *     "gauges": { "<gauge>": v, ... }
 *   }
 * Series cells are strings; cells that parse as plain decimal numbers
 * are emitted as JSON numbers, everything else as JSON strings.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/manifest.hh"
#include "obs/metrics.hh"

namespace boreas::obs
{

/** One named table/series of an artifact (string cells). */
struct BenchSeries
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
};

/** One paper-vs-measured headline row. */
struct BenchComparison
{
    std::string quantity;
    std::string paper;
    std::string measured;
};

/** Everything one bench run exports. */
struct BenchArtifact
{
    RunManifest manifest;
    std::vector<BenchComparison> comparisons;
    std::vector<BenchSeries> series;
    MetricsSnapshot metrics;
};

/** Canonical artifact file name: BENCH_<id>.json. */
std::string benchArtifactFileName(const std::string &id);

/** Serialize the artifact as JSON. */
void writeBenchArtifact(const BenchArtifact &artifact, std::ostream &os);

/**
 * Write the artifact to a file (the repo's one file-output sink).
 * Returns false if the file cannot be opened or written.
 */
bool writeBenchArtifactFile(const BenchArtifact &artifact,
                            const std::string &path);

} // namespace boreas::obs
