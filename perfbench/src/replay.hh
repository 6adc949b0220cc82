/**
 * @file
 * Outside-in replay of SimulationPipeline::start() and ::step().
 *
 * DieReplay owns its own floorplan, VF table, core, power, thermal,
 * severity and sensor models, built from the same PipelineConfig, and
 * drives them through their public calls in the order the pipeline
 * does, timing each call. Those spans are the benchmark's per-layer
 * numbers; no code under src/ is instrumented.
 *
 * LockstepDie runs a real SimulationPipeline and a DieReplay side by
 * side on clones of one workload source. Each step it times the
 * pipeline's step() and its heap allocations, steps the replay, and
 * compares the two StepRecords and silicon temperature fields bit for
 * bit. Any difference is a replay divergence: the per-layer numbers
 * would no longer describe the program, so the traced run fails.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "common.hh"

namespace perfbench
{

/** Per-call spans of every layer the replay drives. */
struct LayerSpans
{
    // Per step, microseconds.
    Samples stimulus;   ///< workload: stimulus() per core + advance()
    Samples coreStep;   ///< arch: residual draw + IntervalCore::step
    Samples unitPower;  ///< power: unitPower[Multi] + totalPower
    Samples unitTemps;  ///< thermal: ThermalGrid::unitTemps()
    Samples setPower;   ///< thermal: ThermalGrid::setUnitPower
    Samples thermalStep;///< thermal: ThermalGrid::step
    Samples sample;     ///< sensors: sampleAll + readings + true temps
    Samples severity;   ///< hotspot: SeverityModel::evaluate

    // Per start.
    Samples steadyStateMs; ///< ThermalGrid::solveSteadyState
    Samples sweeps;        ///< SOR sweeps per steady-state solve
};

/** The pipeline's per-step work, replayed through public layer calls. */
class DieReplay
{
  public:
    explicit DieReplay(const boreas::PipelineConfig &config);

    DieReplay(const DieReplay &) = delete;
    DieReplay &operator=(const DieReplay &) = delete;

    void start(boreas::WorkloadSource &source, uint64_t seed,
               boreas::GHz warm_freq_override, LayerSpans &spans);

    /** One step; fills *rec with the fields StepRecord carries
     *  (stateHash excepted). */
    void step(boreas::GHz freq, boreas::StepRecord *rec,
              LayerSpans &spans);

    const boreas::ThermalGrid &grid() const { return grid_; }

  private:
    std::vector<boreas::Watts> meanUnitPower(uint64_t seed,
                                             boreas::GHz freq);

    boreas::PipelineConfig config_;
    boreas::Floorplan floorplan_;
    boreas::VFTable vf_;
    boreas::IntervalCore core_;
    boreas::PowerModel power_;
    boreas::ThermalGrid grid_;
    boreas::SeverityModel severity_;
    boreas::SensorBank sensors_;

    boreas::WorkloadSource *source_ = nullptr;
    boreas::Rng sensorRng_{0};
    int stepIndex_ = 0;
};

/** Pipeline-level spans and counts of a traced run. */
struct PipelineSpans
{
    Samples startMs;  ///< SimulationPipeline::start
    Samples stepUs;   ///< SimulationPipeline::step
    Samples allocs;   ///< heap allocations inside one step()
    Samples decideUs; ///< FrequencyController::decide
    int64_t decisions = 0;
};

/** A real pipeline and its replay, stepped together and compared. */
class LockstepDie
{
  public:
    /** Spans of every start and step accumulate into the given
     *  sets, so several dies can share one report. */
    LockstepDie(const boreas::PipelineConfig &config, LayerSpans &layers,
                PipelineSpans &spans);

    /** Start both on clones of `source` (which is not touched). */
    void start(const boreas::WorkloadSource &source, uint64_t seed,
               boreas::GHz warm_freq_override = 0.0);

    /** Step both at `freq`; returns the pipeline's record. */
    const boreas::StepRecord &step(boreas::GHz freq);

    /** Timed controller decision on the last step, as the pipeline's
     *  closed-loop runners make it. */
    boreas::GHz decide(boreas::FrequencyController &controller,
                       boreas::GHz current);

    boreas::SimulationPipeline &pipeline() { return pipeline_; }

    /** First divergence seen ("" while the replay matches). */
    const std::string &divergence() const { return divergence_; }
    int64_t divergences() const { return divergences_; }

  private:
    void compare(const boreas::StepRecord &replayed);

    LayerSpans &layers_;
    PipelineSpans &spans_;
    boreas::SimulationPipeline pipeline_;
    DieReplay replay_;
    std::unique_ptr<boreas::WorkloadSource> pipelineSource_;
    std::unique_ptr<boreas::WorkloadSource> replaySource_;
    boreas::StepRecord last_;
    boreas::StepRecord replayed_;
    std::string divergence_;
    int64_t divergences_ = 0;
};

} // namespace perfbench
