/**
 * @file
 * Shared helpers for the Boreas test suite: a reduced-cost pipeline
 * configuration (coarser thermal grid) and a tiny trainer configuration
 * so integration tests run in seconds. Physics-calibration assertions
 * (exact severity values) only hold at the default 64x64 grid and are
 * confined to the tests that use defaults.
 */

#pragma once

#include "boreas/pipeline.hh"
#include "boreas/trainer.hh"

namespace boreas::test
{

/** Pipeline config with a 32x32 grid: ~4x faster, same qualitative
 *  behaviour. */
inline PipelineConfig
fastPipelineConfig(ThermalSolverKind solver = ThermalSolverKind::Explicit)
{
    PipelineConfig cfg;
    cfg.thermal.nx = 32;
    cfg.thermal.ny = 32;
    cfg.thermal.solver = solver;
    return cfg;
}

/** Both thermal integrators: the library default (explicit) and the
 *  one every bench runs (spectral). Invariants that must hold on the
 *  shipped path loop over this. */
inline constexpr ThermalSolverKind kBothSolvers[] = {
    ThermalSolverKind::Explicit,
    ThermalSolverKind::Spectral,
};

/** Trainer config small enough for unit tests (seconds, not minutes). */
inline TrainerConfig
tinyTrainerConfig()
{
    TrainerConfig cfg;
    cfg.data.frequencies = {3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0};
    cfg.data.walkSegments = 2;
    cfg.data.traceSteps = 96;
    cfg.gbt.nEstimators = 100;
    return cfg;
}

} // namespace boreas::test
