/**
 * @file
 * Shared pieces of the benchmark driver: host timing, sample
 * statistics, the per-thread allocation counter, and the result a
 * workload hands back to main().
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
microsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Heap allocations made by the calling thread so far (counted by the
 *  replaced operator new in alloc_count.cc). */
uint64_t threadAllocations();

/** A set of measurements with order statistics. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    size_t size() const { return values_.size(); }
    const std::vector<double> &values() const { return values_; }

    double
    sum() const
    {
        double acc = 0.0;
        for (double v : values_)
            acc += v;
        return acc;
    }

    /** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
    double
    pct(double p) const
    {
        if (values_.empty())
            return 0.0;
        std::vector<double> s = values_;
        std::sort(s.begin(), s.end());
        const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, s.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return s[lo] + (s[hi] - s[lo]) * frac;
    }

    double median() const { return pct(50.0); }

  private:
    std::vector<double> values_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports back to main(). */
struct Outcome
{
    int attempted = 0; ///< repetitions (or traced passes) started
    int failed = 0;    ///< of those, failed or output-check-failed
    std::vector<Metric> metrics;
    std::vector<std::string> errors; ///< every failed check, in order
    std::vector<std::pair<std::string, std::string>> notes; ///< manifest

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Every sample behind a reported figure, printed before the
     *  result so each repetition of a run is on record. */
    void
    series(const std::string &name, const Samples &samples)
    {
        std::string line;
        for (double v : samples.values()) {
            char num[32];
            std::snprintf(num, sizeof(num), "%.6g", v);
            line += (line.empty() ? "" : " ") + std::string(num);
        }
        notes.emplace_back(name + " samples", line);
    }

    void
    note(std::string key, std::string value)
    {
        notes.emplace_back(std::move(key), std::move(value));
    }

    /** Record a failed check; returns false for use in conditions. */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
        return ok;
    }
};

/** Benchmark-wide settings parsed by main(). */
struct Options
{
    std::string workload;
    uint64_t seed = 2023;
    double seconds = 10.0;
    bool trace = false;
    std::string modelPath = "perfbench/model/ml05.bundle";
};

} // namespace perfbench
