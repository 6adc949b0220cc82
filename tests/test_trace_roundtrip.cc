/**
 * @file
 * boreas-trace-v1 record/replay tests: bit-identical replay of a
 * recorded run through the on-disk byte format (the headline
 * determinism guarantee, on both thermal integrators and checked at 1
 * and 8 threads), container round-trips through encode/decode and
 * through the filesystem, corruption detection, and the committed
 * fixture under tests/data/.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "boreas/pipeline.hh"
#include "common/parallel.hh"
#include "test_util.hh"
#include "workload/registry.hh"
#include "workload/trace_io.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;
using boreas::test::kBothSolvers;

namespace
{

constexpr const char *kMixSpec = "mix:mcf+cg.B@stagger=0.8e-3";
constexpr uint64_t kSeed = 2023;
constexpr GHz kFreq = 4.25;
constexpr int kSteps = 36;

struct GlobalPoolGuard
{
    ~GlobalPoolGuard()
    {
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

/** Record a live run of `spec`; returns (trace, live hashes). */
TraceData
recordRun(const std::string &spec, ThermalSolverKind solver,
          std::vector<uint64_t> *step_hashes, uint64_t *run_hash)
{
    SimulationPipeline pipeline(fastPipelineConfig(solver));
    TraceRecorder recorder;
    pipeline.setTraceRecorder(&recorder);
    auto source = makeWorkloadSource(spec);
    const RunResult r =
        pipeline.runConstantFrequency(*source, kSeed, kFreq, kSteps);
    if (step_hashes) {
        step_hashes->clear();
        for (const StepRecord &s : r.steps)
            step_hashes->push_back(s.stateHash);
    }
    if (run_hash)
        *run_hash = pipeline.runHash();
    return recorder.takeData();
}

/** Record a live explicit-solver run of the 2-core mix. */
TraceData
recordMixRun(std::vector<uint64_t> *step_hashes, uint64_t *run_hash)
{
    return recordRun(kMixSpec, ThermalSolverKind::Explicit, step_hashes,
                     run_hash);
}

uint64_t
replayRun(const TraceData &data, std::vector<uint64_t> *step_hashes,
          ThermalSolverKind solver = ThermalSolverKind::Explicit)
{
    SimulationPipeline pipeline(fastPipelineConfig(solver));
    TraceSource source(data);
    const RunResult r =
        pipeline.runConstantFrequency(source, kSeed, kFreq, kSteps);
    if (step_hashes) {
        step_hashes->clear();
        for (const StepRecord &s : r.steps)
            step_hashes->push_back(s.stateHash);
    }
    return pipeline.runHash();
}

std::string
fixturePath()
{
    return std::string(BOREAS_TEST_DATA) + "/mix_mcf_cgB.trace";
}

} // namespace

TEST(TraceRoundtrip, ReplayIsBitIdenticalToLiveRun)
{
    // Record -> encode -> decode -> replay, as bench/workload_replay
    // does: the 2-core mix, the 4-core staggered NAS mix and the
    // core-hopping adversary, on both thermal integrators.
    const std::pair<const char *, int> scenarios[] = {
        {kMixSpec, 2},
        {"mix:bt.B+is.D+ep.B+cg.B@stagger=0.8e-3", 4},
        {"adversarial:corehop", 4},
    };
    for (const ThermalSolverKind solver : kBothSolvers) {
        for (const auto &[spec, cores] : scenarios) {
            SCOPED_TRACE(std::string(thermalSolverName(solver)) + " " +
                         spec);
            std::vector<uint64_t> live_steps;
            uint64_t live_hash = 0;
            TraceData trace =
                recordRun(spec, solver, &live_steps, &live_hash);

            ASSERT_EQ(trace.numCores, cores);
            ASSERT_EQ(static_cast<int>(trace.steps.size()), kSteps);
            ASSERT_EQ(trace.seed, kSeed);
            ASSERT_FALSE(trace.warmPower.empty())
                << "recorded traces carry the warm-start power vector";

            TraceData decoded;
            std::string error;
            ASSERT_TRUE(decodeTrace(encodeTrace(trace), &decoded, &error))
                << error;

            std::vector<uint64_t> replay_steps;
            const uint64_t replay_hash =
                replayRun(decoded, &replay_steps, solver);

            ASSERT_EQ(live_steps.size(), replay_steps.size());
            for (size_t i = 0; i < live_steps.size(); ++i)
                ASSERT_EQ(live_steps[i], replay_steps[i]) << "step " << i;
            EXPECT_EQ(live_hash, replay_hash);
        }
    }
}

TEST(TraceRoundtrip, ReplayHashStableAcrossThreadCounts)
{
    GlobalPoolGuard guard;

    for (const ThermalSolverKind solver : kBothSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        ThreadPool::resetGlobal(1);
        uint64_t live1 = 0;
        const TraceData trace = recordRun(kMixSpec, solver, nullptr,
                                          &live1);
        const uint64_t replay1 = replayRun(trace, nullptr, solver);

        ThreadPool::resetGlobal(8);
        uint64_t live8 = 0;
        const TraceData trace8 = recordRun(kMixSpec, solver, nullptr,
                                           &live8);
        const uint64_t replay8 = replayRun(trace, nullptr, solver);

        EXPECT_EQ(live1, live8) << "live mix run depends on thread count";
        EXPECT_EQ(replay1, replay8) << "replay depends on thread count";
        EXPECT_EQ(live1, replay1);
        EXPECT_EQ(trace.payloadChecksum, trace8.payloadChecksum)
            << "recorded payload depends on thread count";
    }
}

TEST(TraceRoundtrip, EncodeDecodePreservesEverything)
{
    TraceData trace = recordMixRun(nullptr, nullptr);
    const std::vector<uint8_t> bytes = encodeTrace(trace);

    TraceData back;
    std::string error;
    ASSERT_TRUE(decodeTrace(bytes, &back, &error)) << error;
    EXPECT_EQ(back.sourceName, trace.sourceName);
    EXPECT_EQ(back.numCores, trace.numCores);
    EXPECT_EQ(back.dt, trace.dt);
    EXPECT_EQ(back.seed, trace.seed);
    EXPECT_EQ(back.warmPower, trace.warmPower);
    EXPECT_EQ(back.payloadChecksum, trace.payloadChecksum);
    ASSERT_EQ(back.steps.size(), trace.steps.size());
    for (size_t s = 0; s < back.steps.size(); ++s) {
        ASSERT_EQ(back.steps[s].stepIndex, trace.steps[s].stepIndex);
        ASSERT_EQ(back.steps[s].cores.size(),
                  trace.steps[s].cores.size());
        for (size_t c = 0; c < back.steps[s].cores.size(); ++c) {
            const TraceCoreRecord &a = back.steps[s].cores[c];
            const TraceCoreRecord &b = trace.steps[s].cores[c];
            ASSERT_EQ(a.active, b.active);
            ASSERT_TRUE(a.rng == b.rng);
            ASSERT_EQ(a.phase.baseCpi, b.phase.baseCpi);
            ASSERT_EQ(a.phase.intensity, b.phase.intensity);
            ASSERT_EQ(a.phase.l3Mpki, b.phase.l3Mpki);
        }
    }
}

TEST(TraceRoundtrip, CorruptionIsDetected)
{
    TraceData trace = recordMixRun(nullptr, nullptr);
    const std::vector<uint8_t> bytes = encodeTrace(trace);
    TraceData out;
    std::string error;

    { // bad magic
        auto bad = bytes;
        bad[0] ^= 0xff;
        EXPECT_FALSE(decodeTrace(bad, &out, &error));
        EXPECT_FALSE(error.empty());
    }
    { // flipped payload bit -> checksum mismatch
        auto bad = bytes;
        bad[bytes.size() - 5] ^= 0x01;
        EXPECT_FALSE(decodeTrace(bad, &out, &error));
        EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    }
    { // truncation
        auto bad = bytes;
        bad.resize(bad.size() - 1);
        EXPECT_FALSE(decodeTrace(bad, &out, &error));
    }
    { // trailing garbage
        auto bad = bytes;
        bad.push_back(0);
        EXPECT_FALSE(decodeTrace(bad, &out, &error));
    }
    { // empty input
        EXPECT_FALSE(decodeTrace({}, &out, &error));
    }
}

TEST(TraceRoundtrip, FileRoundtripThroughTempDir)
{
    TraceData trace = recordMixRun(nullptr, nullptr);
    const std::string path =
        testing::TempDir() + "boreas_roundtrip.trace";
    writeTraceFile(path, trace);

    auto source = TraceSource::fromFile(path);
    EXPECT_EQ(source->checksum(), trace.payloadChecksum);
    EXPECT_EQ(source->numSteps(), kSteps);
    EXPECT_EQ(source->recordedSeed(), kSeed);

    SimulationPipeline pipeline(fastPipelineConfig());
    pipeline.runConstantFrequency(*source, kSeed, kFreq, kSteps);
    uint64_t direct = replayRun(trace, nullptr);
    EXPECT_EQ(pipeline.runHash(), direct);
    std::remove(path.c_str());
}

TEST(TraceRoundtrip, RegistryTraceSchemeLoadsFixture)
{
    // The committed fixture (tests/data/, regenerated with
    // `boreas_trace record`) must load through the trace: scheme and
    // replay deterministically: same runHash on two fresh replays.
    std::string error;
    auto source = tryMakeWorkloadSource("trace:" + fixturePath(), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->numCores(), 2);

    SimulationPipeline a(fastPipelineConfig());
    SimulationPipeline b(fastPipelineConfig());
    a.runConstantFrequency(*source, 1, kFreq, 24);
    const uint64_t first = a.runHash();
    auto copy = source->clone();
    b.runConstantFrequency(*copy, 999, kFreq, 24);
    // reset(seed) is ignored by TraceSource: different seeds, same
    // stream.
    EXPECT_EQ(first, b.runHash());
}

TEST(TraceRoundtrip, ScaledReplayDropsWarmPowerAndChangesStream)
{
    TraceData trace = recordMixRun(nullptr, nullptr);
    TraceSource plain(trace);
    ASSERT_NE(plain.recordedWarmPower(), nullptr);

    auto scaled = plain.cloneScaled(1.1);
    EXPECT_EQ(scaled->recordedWarmPower(), nullptr)
        << "recorded warm power is only valid for unscaled replay";

    SimulationPipeline a(fastPipelineConfig());
    SimulationPipeline b(fastPipelineConfig());
    a.runConstantFrequency(plain, kSeed, kFreq, kSteps);
    b.runConstantFrequency(*scaled, kSeed, kFreq, kSteps);
    EXPECT_NE(a.runHash(), b.runHash());
}
