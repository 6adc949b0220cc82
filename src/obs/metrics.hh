/**
 * @file
 * Process-wide metrics registry (DESIGN.md §8): counters, gauges and
 * power-of-two-bucketed histograms, sharded per thread so the hot path
 * never takes a lock, merged into one deterministically-ordered
 * snapshot on demand, plus ScopedTimer, which times a scope into a
 * histogram.
 *
 * Determinism contract
 *   - Observability reads simulator state, never feeds it: nothing in
 *     this module influences a simulation result. The determinism audit
 *     (tests/test_determinism_audit.cc) proves the pipeline's runHash
 *     is bit-identical with the layer enabled or disabled.
 *   - Counter values and histogram bucket/count fields are integers, so
 *     the merged snapshot is identical at every thread count under the
 *     parallel layer's usual discipline (each task owns its work).
 *     Histogram sum/min/max are floating point and, like any parallel
 *     FP reduction, are informational rather than bit-stable.
 *   - snapshot() and reset() must be called outside parallel regions:
 *     the thread-pool join is the happens-before edge that makes the
 *     cross-shard reads race-free (common/parallel.hh).
 *
 * Cost model: every update first checks one relaxed atomic flag; when
 * the registry is disabled (the default) that is the entire cost, so
 * instrumented hot paths stay at full speed in normal runs.
 *
 * This library is deliberately dependency-free (std only) so that even
 * src/common — including the thread pool itself — can be instrumented
 * without an include cycle.
 */

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace boreas::obs
{

/** Number of histogram buckets (one per power-of-two upper bound). */
constexpr size_t kHistogramBuckets = 48;

/**
 * One merged histogram: bucket b counts samples in
 * (2^(b-1-bias), 2^(b-bias)]; bucket 0 additionally absorbs
 * non-positive samples. Units are whatever the caller observed
 * (scoped timers observe microseconds).
 */
struct HistogramData
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<uint64_t, kHistogramBuckets> buckets{};

    double mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /** Bucket index a value lands in. */
    static size_t bucketFor(double value);
    /** Inclusive upper bound of a bucket. */
    static double bucketUpperBound(size_t bucket);
};

/** Deterministically ordered (name-sorted) view of every metric. */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
};

/** Sharded registry; use the process-wide global() instance. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    /** Master switch; disabled updates cost one relaxed load. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Increment a counter (no-op while disabled). */
    void add(const std::string &name, uint64_t delta = 1);

    /** Set a gauge. Gauges are owned by whichever thread sets them;
     *  setting the same gauge from several threads merges to the
     *  earliest-registered shard's value. */
    void set(const std::string &name, double value);

    /** Record one histogram sample (scoped timers use microseconds). */
    void observe(const std::string &name, double value);

    /**
     * Merge every shard, walking shards in creation order and metrics
     * in name order. Call only outside parallel regions.
     */
    MetricsSnapshot snapshot() const;

    /** Zero every metric in place (shards stay registered). Call only
     *  outside parallel regions. */
    void reset();

  private:
    struct Shard
    {
        std::map<std::string, uint64_t> counters;
        std::map<std::string, double> gauges;
        std::map<std::string, HistogramData> histograms;
    };

    Shard &localShard();

    mutable std::mutex mutex_; ///< guards the shard list only
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> enabled_{false};
};

/**
 * RAII timer: times its scope into the histogram `name`, in
 * microseconds. Costs one relaxed load when the registry is disabled.
 * `name` must be a string literal (it is stored by pointer).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name)
    {
        if (MetricsRegistry::global().enabled()) {
            name_ = name;
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~ScopedTimer()
    {
        if (name_ != nullptr)
            finish();
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    void finish();

    const char *name_ = nullptr;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace boreas::obs
