#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>

namespace boreas::obs
{

namespace
{

/** Bucket 0 upper bound is 2^kBucketBias0 = 2^-12 (sub-nanosecond when
 *  observing microseconds); the last bucket tops out near 2^35 us. */
constexpr int kBucketExponentBias = 12;

} // namespace

size_t
HistogramData::bucketFor(double value)
{
    if (!(value > 0.0))
        return 0;
    int exp = 0;
    const double m = std::frexp(value, &exp); // value = m * 2^exp
    if (m == 0.5)
        --exp; // exact powers of two belong to their upper-bound bucket
    const int idx = exp + kBucketExponentBias;
    if (idx < 0)
        return 0;
    return std::min(static_cast<size_t>(idx), kHistogramBuckets - 1);
}

double
HistogramData::bucketUpperBound(size_t bucket)
{
    return std::ldexp(1.0, static_cast<int>(bucket) -
                      kBucketExponentBias);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    // The registry is a process singleton, so one thread-local slot per
    // thread suffices. Shards are never deallocated (reset() zeroes
    // them in place), so the cached pointer stays valid for the
    // thread's lifetime.
    static thread_local Shard *tls = nullptr;
    if (tls == nullptr) {
        auto shard = std::make_unique<Shard>();
        tls = shard.get();
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::move(shard));
    }
    return *tls;
}

void
MetricsRegistry::add(const std::string &name, uint64_t delta)
{
    if (!enabled())
        return;
    localShard().counters[name] += delta;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    if (!enabled())
        return;
    localShard().gauges[name] = value;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    if (!enabled())
        return;
    HistogramData &h = localShard().histograms[name];
    if (h.count == 0) {
        h.min = value;
        h.max = value;
    } else {
        h.min = std::min(h.min, value);
        h.max = std::max(h.max, value);
    }
    ++h.count;
    h.sum += value;
    ++h.buckets[HistogramData::bucketFor(value)];
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        for (const auto &[name, v] : shard->counters)
            out.counters[name] += v;
        for (const auto &[name, v] : shard->gauges)
            out.gauges.emplace(name, v); // earliest shard wins
        for (const auto &[name, h] : shard->histograms) {
            HistogramData &m = out.histograms[name];
            if (h.count == 0)
                continue;
            if (m.count == 0) {
                m.min = h.min;
                m.max = h.max;
            } else {
                m.min = std::min(m.min, h.min);
                m.max = std::max(m.max, h.max);
            }
            m.count += h.count;
            m.sum += h.sum;
            for (size_t b = 0; b < kHistogramBuckets; ++b)
                m.buckets[b] += h.buckets[b];
        }
    }
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        shard->counters.clear();
        shard->gauges.clear();
        shard->histograms.clear();
    }
}

void
ScopedTimer::finish()
{
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    MetricsRegistry::global().observe(name_, us);
}

} // namespace boreas::obs
