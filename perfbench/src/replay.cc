#include "replay.hh"

#include <cmath>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "sensors/placement.hh"

namespace perfbench
{

using namespace boreas;

namespace
{

/** Bitwise equality, so -0.0 vs 0.0 and NaN payloads count. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

template <size_t N>
bool
sameBits(const std::array<double, N> &a, const std::array<double, N> &b)
{
    return std::memcmp(a.data(), b.data(), N * sizeof(double)) == 0;
}

/** Name of the first StepRecord field that differs, or "". */
std::string
firstDifference(const StepRecord &a, const StepRecord &b)
{
    if (a.step != b.step)
        return "step";
    if (!sameBits(a.frequency, b.frequency))
        return "frequency";
    if (!sameBits(a.voltage, b.voltage))
        return "voltage";
    if (!sameBits(a.counters.values, b.counters.values))
        return "counters";
    if (a.coreCounters.size() != b.coreCounters.size())
        return "coreCounters.size";
    for (size_t c = 0; c < a.coreCounters.size(); ++c) {
        if (!sameBits(a.coreCounters[c].values, b.coreCounters[c].values))
            return strfmt("coreCounters[%zu]", c);
    }
    if (!sameBits(a.totalPower, b.totalPower))
        return "totalPower";
    const SeveritySnapshot &sa = a.severity;
    const SeveritySnapshot &sb = b.severity;
    if (!sameBits(sa.maxSeverity, sb.maxSeverity) ||
        sa.argmaxCell != sb.argmaxCell ||
        !sameBits(sa.tempAtMax, sb.tempAtMax) ||
        !sameBits(sa.mltdAtMax, sb.mltdAtMax) ||
        !sameBits(sa.maxTemp, sb.maxTemp) ||
        !sameBits(sa.maxMltd, sb.maxMltd))
        return "severity";
    if (!sameBits(a.sensorReadings, b.sensorReadings))
        return "sensorReadings";
    if (!sameBits(a.sensorTrue, b.sensorTrue))
        return "sensorTrue";
    return "";
}

} // namespace

DieReplay::DieReplay(const PipelineConfig &config)
    : config_(config),
      floorplan_(buildSkylakeFloorplan(config.floorplan)),
      vf_(),
      core_(config.core),
      power_(floorplan_, config.power),
      grid_(floorplan_, config.thermal),
      severity_(config.severity)
{
    const auto sites = canonicalSensorSites(floorplan_, config_.activeCore);
    for (size_t i = 0; i < sites.size(); ++i) {
        sensors_.addSensor(strfmt("tsens%02zu", i), sites[i],
                           config_.sensors);
    }
}

std::vector<Watts>
DieReplay::meanUnitPower(uint64_t seed, GHz freq)
{
    // The pipeline's warm-start probe: 64 steps of the source on a
    // fresh clone, leakage at a uniform ambient + 20 C.
    const std::unique_ptr<WorkloadSource> probe = source_->clone();
    probe->reset(seed);
    const int ncores = probe->numCores();
    const Volts volts = vf_.voltage(freq);
    const std::vector<Celsius> warm_temps(floorplan_.numUnits(),
                                          config_.thermal.ambient + 20.0);
    constexpr int kProbeSteps = 64;
    std::vector<Watts> acc(floorplan_.numUnits(), 0.0);
    for (int s = 0; s < kProbeSteps; ++s) {
        std::vector<Watts> p;
        if (ncores == 1) {
            const PhaseParams phase = probe->stimulus(0).phase;
            const CounterSet counters = core_.step(
                phase, freq, config_.stepLength, probe->noiseRng(0));
            p = power_.unitPower(counters, config_.activeCore, 1.0, freq,
                                 volts, warm_temps, config_.stepLength);
        } else {
            std::vector<CounterSet> counters(ncores);
            std::vector<const CounterSet *> ptrs(ncores, nullptr);
            const std::vector<double> nominal(ncores, 1.0);
            for (int c = 0; c < ncores; ++c) {
                const CoreStimulus stim = probe->stimulus(c);
                if (!stim.active)
                    continue;
                counters[c] = core_.step(stim.phase, freq,
                                         config_.stepLength,
                                         probe->noiseRng(c));
                ptrs[c] = &counters[c];
            }
            p = power_.unitPowerMulti(ptrs, nominal, freq, volts,
                                      warm_temps, config_.stepLength);
        }
        for (size_t i = 0; i < acc.size(); ++i)
            acc[i] += p[i];
        probe->advance(config_.stepLength);
    }
    for (auto &w : acc)
        w /= kProbeSteps;
    return acc;
}

void
DieReplay::start(WorkloadSource &source, uint64_t seed,
                 GHz warm_freq_override, LayerSpans &spans)
{
    source_ = &source;
    source.reset(seed);
    sensorRng_ = Rng(seed ^ 0xb0a3a5c1d2e3f405ULL);
    stepIndex_ = 0;

    grid_.reset(config_.thermal.ambient);
    if (config_.warmStart) {
        const GHz warm_freq = warm_freq_override > 0.0
            ? warm_freq_override : config_.warmStartFreq;
        const std::vector<Watts> *recorded = source.recordedWarmPower();
        const auto mean_power = recorded
            ? *recorded
            : meanUnitPower(seed ^ 0x5eedULL, warm_freq);
        grid_.setUnitPower(mean_power);
        const auto t0 = Clock::now();
        const int sweeps = grid_.solveSteadyState();
        spans.steadyStateMs.add(microsSince(t0) / 1e3);
        spans.sweeps.add(sweeps);
    }
    for (size_t i = 0; i < sensors_.size(); ++i) {
        ThermalSensor &sensor = sensors_.sensor(static_cast<int>(i));
        sensor.reset(grid_.temperatureAt(sensor.location()));
    }
}

void
DieReplay::step(GHz freq, StepRecord *rec, LayerSpans &spans)
{
    const Volts volts = vf_.voltage(freq);
    const int ncores = source_->numCores();

    auto t0 = Clock::now();
    std::vector<CoreStimulus> stimuli(ncores);
    for (int c = 0; c < ncores; ++c)
        stimuli[c] = source_->stimulus(c);
    double stimulus_us = microsSince(t0);

    rec->step = stepIndex_;
    rec->frequency = freq;
    rec->voltage = volts;

    t0 = Clock::now();
    std::vector<CounterSet> core_counters(ncores);
    std::vector<double> residuals(ncores, 1.0);
    for (int c = 0; c < ncores; ++c) {
        if (!stimuli[c].active)
            continue;
        const PhaseParams &phase = stimuli[c].phase;
        if (phase.intensityNoise > 0.0) {
            residuals[c] = std::exp(
                source_->noiseRng(c).normal(0.0, phase.intensityNoise));
        }
        core_counters[c] = core_.step(phase, freq, config_.stepLength,
                                      source_->noiseRng(c));
    }
    spans.coreStep.add(microsSince(t0));
    rec->counters = core_counters[0];
    rec->coreCounters.clear();
    if (ncores > 1)
        rec->coreCounters = core_counters;

    t0 = Clock::now();
    const std::vector<Celsius> &unit_temps = grid_.unitTemps();
    spans.unitTemps.add(microsSince(t0));

    t0 = Clock::now();
    std::vector<Watts> unit_power;
    if (ncores == 1 && stimuli[0].active) {
        unit_power = power_.unitPower(rec->counters, config_.activeCore,
                                      residuals[0], freq, volts,
                                      unit_temps, config_.stepLength);
    } else {
        std::vector<const CounterSet *> ptrs(ncores, nullptr);
        for (int c = 0; c < ncores; ++c) {
            if (stimuli[c].active)
                ptrs[c] = &core_counters[c];
        }
        unit_power = power_.unitPowerMulti(ptrs, residuals, freq, volts,
                                           unit_temps, config_.stepLength);
    }
    rec->totalPower = PowerModel::totalPower(unit_power);
    spans.unitPower.add(microsSince(t0));

    t0 = Clock::now();
    grid_.setUnitPower(unit_power);
    spans.setPower.add(microsSince(t0));

    t0 = Clock::now();
    grid_.step(config_.stepLength);
    spans.thermalStep.add(microsSince(t0));

    t0 = Clock::now();
    sensors_.sampleAll(grid_, config_.stepLength, sensorRng_);
    rec->sensorReadings = sensors_.readings();
    rec->sensorTrue.clear();
    rec->sensorTrue.reserve(sensors_.size());
    for (size_t i = 0; i < sensors_.size(); ++i)
        rec->sensorTrue.push_back(
            sensors_.sensor(static_cast<int>(i)).lastTrueTemp());
    spans.sample.add(microsSince(t0));

    t0 = Clock::now();
    const Meters cell_size = floorplan_.dieWidth() / grid_.nx();
    rec->severity = severity_.evaluate(grid_.siliconTemps(), grid_.nx(),
                                       grid_.ny(), cell_size);
    spans.severity.add(microsSince(t0));

    t0 = Clock::now();
    source_->advance(config_.stepLength);
    stimulus_us += microsSince(t0);
    spans.stimulus.add(stimulus_us);
    ++stepIndex_;
}

LockstepDie::LockstepDie(const PipelineConfig &config, LayerSpans &layers,
                         PipelineSpans &spans)
    : layers_(layers), spans_(spans), pipeline_(config), replay_(config)
{
}

void
LockstepDie::start(const WorkloadSource &source, uint64_t seed,
                   GHz warm_freq_override)
{
    pipelineSource_ = source.clone();
    replaySource_ = source.clone();
    const auto t0 = Clock::now();
    pipeline_.start(*pipelineSource_, seed, warm_freq_override);
    spans_.startMs.add(microsSince(t0) / 1e3);
    replay_.start(*replaySource_, seed, warm_freq_override, layers_);
}

const StepRecord &
LockstepDie::step(GHz freq)
{
    const uint64_t allocs0 = threadAllocations();
    const auto t0 = Clock::now();
    last_ = pipeline_.step(freq);
    spans_.stepUs.add(microsSince(t0));
    spans_.allocs.add(static_cast<double>(threadAllocations() - allocs0));

    replay_.step(freq, &replayed_, layers_);
    compare(replayed_);
    return last_;
}

void
LockstepDie::compare(const StepRecord &replayed)
{
    std::string what = firstDifference(last_, replayed);
    if (what.empty() &&
        (!sameBits(pipeline_.thermalGrid().siliconTemps(),
                   replay_.grid().siliconTemps()) ||
         !sameBits(pipeline_.thermalGrid().sinkTemp(),
                   replay_.grid().sinkTemp())))
        what = "silicon temperatures";
    if (what.empty())
        return;
    if (divergences_++ == 0) {
        divergence_ = strfmt("replay diverged from the pipeline at step "
                             "%d: %s", last_.step, what.c_str());
    }
}

GHz
LockstepDie::decide(FrequencyController &controller, GHz current)
{
    const auto t0 = Clock::now();
    DecisionContext ctx;
    ctx.currentFreq = current;
    ctx.counters = &last_.counters;
    ctx.sensorReadings = last_.sensorReadings;
    ctx.vf = &pipeline_.vfTable();
    const GHz next = controller.decide(ctx);
    spans_.decideUs.add(microsSince(t0));
    ++spans_.decisions;
    return next;
}

} // namespace perfbench
