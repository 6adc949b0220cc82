/**
 * @file
 * Thermal-solver bench: accuracy and speed of the spectral exponential
 * integrator against the explicit reference (DESIGN.md §9).
 *
 * Accuracy phases (fig7-style power schedule, controller cadence):
 *   - per-step divergence from the production explicit reference,
 *     re-syncing to its state every step (what the checked-build
 *     shadow run measures; bounded by spectralShadowTolerance);
 *   - per-step divergence from a 16x-refined explicit reference whose
 *     truncation error is near zero — the documented 0.05 C bound on
 *     spectral error "vs exact" that CI enforces (this bench exits
 *     nonzero when it is exceeded);
 *   - free-running trajectory divergence (no re-sync), which is
 *     dominated by the *explicit* integrator's accumulated truncation.
 *
 * Timing phase: microseconds per telemetry step for each integrator,
 * step-only and full cycle (power ingest + step + temperature
 * publish), plus the resulting speedup columns in
 * BENCH_thermal_solver.json.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/rng.hh"
#include "common/table.hh"
#include "floorplan/skylake.hh"
#include "harness.hh"
#include "report.hh"
#include "thermal/spectral_solver.hh"
#include "thermal/thermal_grid.hh"

using namespace boreas;
using namespace boreas::bench;

namespace
{

/** The documented spectral-vs-exact bound, Celsius (the same bound as
 *  SpectralSolver.WithinBoundOfRefinedReference). */
constexpr double kExactnessBound = 0.05;
/** Refinement factor of the near-exact explicit reference. */
constexpr double kRefinedDtSafety = 0.025;

std::vector<Watts>
scatterPower(const std::vector<UnitCellMap> &maps,
             const std::vector<Watts> &unit_power, int n)
{
    std::vector<Watts> cell(n, 0.0);
    for (size_t u = 0; u < unit_power.size(); ++u)
        for (size_t k = 0; k < maps[u].cells.size(); ++k)
            cell[maps[u].cells[k]] +=
                unit_power[u] * maps[u].fractions[k];
    return cell;
}

/** Deterministic fig7-style power schedule (changes every decision). */
std::vector<Watts>
schedulePower(Rng &rng, size_t units)
{
    std::vector<Watts> power(units);
    for (double &p : power)
        p = rng.uniform(0.0, 8.0);
    return power;
}

/**
 * Max abs per-step spectral divergence from an explicit reference at
 * the given dtSafety, re-syncing the spectral state to the reference
 * every step (isolates one step's error from trajectory feedback).
 */
double
perStepDivergence(double dt_safety, int steps)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    params.dtSafety = dt_safety;
    ThermalGrid ref(fp, params);
    SpectralThermalSolver solver(ref.spectralNetwork());
    const std::vector<UnitCellMap> maps =
        fp.rasterize(params.nx, params.ny);

    Rng rng(kBenchSeed);
    std::vector<double> ssi, ssp;
    double max_err = 0.0;
    for (int step = 0; step < steps; ++step) {
        if (step % kStepsPerDecision == 0) {
            const std::vector<Watts> power =
                schedulePower(rng, fp.numUnits());
            ref.setUnitPower(power);
            solver.setPower(scatterPower(maps, power, ref.numCells()));
        }
        solver.loadState(ref.siliconTemps(), ref.spreaderTemps(),
                         ref.sinkTemp());
        solver.step(kTelemetryStep);
        ref.step(kTelemetryStep);
        solver.realizeSilicon(ssi);
        solver.realizeSpreader(ssp);
        const std::vector<Celsius> &ts = ref.siliconTemps();
        const std::vector<Celsius> &tp = ref.spreaderTemps();
        for (size_t i = 0; i < ts.size(); ++i) {
            max_err = std::max(max_err, std::fabs(ts[i] - ssi[i]));
            max_err = std::max(max_err, std::fabs(tp[i] - ssp[i]));
        }
        max_err = std::max(max_err,
                           std::fabs(ref.sinkTemp() - solver.sinkTemp()));
    }
    return max_err;
}

/** Free-running max divergence between the two production grids. */
double
trajectoryDivergence(int steps)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams pe;
    ThermalParams ps;
    ps.solver = ThermalSolverKind::Spectral;
    ps.spectralShadowCheck = false;
    ThermalGrid ge(fp, pe);
    ThermalGrid gs(fp, ps);

    Rng rng(kBenchSeed);
    double max_err = 0.0;
    for (int step = 0; step < steps; ++step) {
        if (step % kStepsPerDecision == 0) {
            const std::vector<Watts> power =
                schedulePower(rng, fp.numUnits());
            ge.setUnitPower(power);
            gs.setUnitPower(power);
        }
        ge.step(kTelemetryStep);
        gs.step(kTelemetryStep);
        const std::vector<Celsius> &te = ge.siliconTemps();
        const std::vector<Celsius> &ts = gs.siliconTemps();
        for (size_t i = 0; i < te.size(); ++i)
            max_err = std::max(max_err, std::fabs(te[i] - ts[i]));
    }
    return max_err;
}

struct TimingRow
{
    double stepUs = 0.0;  ///< step() only
    double cycleUs = 0.0; ///< set power + step + read temperatures
};

TimingRow
timeSolver(ThermalSolverKind kind, int steps)
{
    using clock = std::chrono::steady_clock;
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    params.solver = kind;
    params.spectralShadowCheck = false; // time the fast path itself
    ThermalGrid grid(fp, params);

    Rng rng(kBenchSeed);
    // Two alternating power maps so setUnitPower never short-circuits
    // on the identical-input skip.
    const std::vector<Watts> pa = schedulePower(rng, fp.numUnits());
    const std::vector<Watts> pb = schedulePower(rng, fp.numUnits());

    grid.setUnitPower(pa);
    for (int i = 0; i < 16; ++i) // warm up caches and the step plan
        grid.step(kTelemetryStep);

    const clock::time_point t0 = clock::now();
    for (int i = 0; i < steps; ++i)
        grid.step(kTelemetryStep);
    const clock::time_point t1 = clock::now();

    double checksum = 0.0;
    const clock::time_point t2 = clock::now();
    for (int i = 0; i < steps; ++i) {
        grid.setUnitPower((i & 1) != 0 ? pb : pa);
        grid.step(kTelemetryStep);
        checksum += grid.maxSiliconTemp();
    }
    const clock::time_point t3 = clock::now();
    if (!std::isfinite(checksum))
        std::fprintf(stderr, "non-finite checksum\n");

    const auto us = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
    };
    TimingRow row;
    row.stepUs = us(t0, t1) / steps;
    row.cycleUs = us(t2, t3) / steps;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    // The solver comparison drives a synthetic power schedule directly
    // into the grids; there is no workload dimension to override.
    requireNoWorkloadOverride(parseBenchArgs(argc, argv),
                              "thermal_solver");
    BenchReport report("thermal_solver");
    report.thermalSolver(thermalSolverName(ThermalSolverKind::Spectral));

    const Scale scale = benchScale();
    const int accuracy_steps = scale == Scale::Small ? 120
                               : scale == Scale::Paper ? 960
                                                       : 240;
    const int timing_steps = scale == Scale::Small ? 400 : 2000;
    report.config("accuracy_steps", double(accuracy_steps));
    report.config("timing_steps", double(timing_steps));
    report.config("exactness_bound_C", kExactnessBound);

    std::printf("=== thermal solver accuracy (max abs divergence, C) "
                "===\n");
    const double shadow_bound = ThermalParams{}.spectralShadowTolerance;
    const double vs_production =
        perStepDivergence(ThermalParams{}.dtSafety, accuracy_steps);
    const double vs_refined =
        perStepDivergence(kRefinedDtSafety, accuracy_steps);
    const double trajectory = trajectoryDivergence(accuracy_steps);

    TextTable accuracy;
    accuracy.setHeader({"comparison", "max abs err C", "bound C",
                        "pass"});
    accuracy.addRow({"per-step vs production explicit",
                     TextTable::num(vs_production, 4),
                     TextTable::num(shadow_bound, 2),
                     vs_production <= shadow_bound ? "yes" : "NO"});
    accuracy.addRow({"per-step vs 16x-refined explicit",
                     TextTable::num(vs_refined, 4),
                     TextTable::num(kExactnessBound, 2),
                     vs_refined <= kExactnessBound ? "yes" : "NO"});
    accuracy.addRow({"free-running trajectory",
                     TextTable::num(trajectory, 4), "(unbounded)",
                     "-"});
    accuracy.print(std::cout);
    report.addTable("accuracy", accuracy);
    report.comparison("spectral vs exact",
                      "<= 0.05 C",
                      TextTable::num(vs_refined, 4) + " C");

    std::printf("\n=== thermal solver timing (us per %g us telemetry "
                "step) ===\n", kTelemetryStep * 1e6);
    const TimingRow te = timeSolver(ThermalSolverKind::Explicit,
                                    timing_steps);
    const TimingRow ts = timeSolver(ThermalSolverKind::Spectral,
                                    timing_steps);

    TextTable timing;
    timing.setHeader({"solver", "step us", "full cycle us",
                      "step speedup", "cycle speedup"});
    timing.addRow({"explicit", TextTable::num(te.stepUs, 2),
                   TextTable::num(te.cycleUs, 2), "1.0", "1.0"});
    timing.addRow({"spectral", TextTable::num(ts.stepUs, 2),
                   TextTable::num(ts.cycleUs, 2),
                   TextTable::num(te.stepUs / ts.stepUs, 1),
                   TextTable::num(te.cycleUs / ts.cycleUs, 1)});
    timing.print(std::cout);
    report.addTable("timing", timing);
    report.comparison("thermal step speedup", ">=10x target",
                      TextTable::num(te.stepUs / ts.stepUs, 1) + "x");

    if (vs_refined > kExactnessBound) {
        std::fprintf(stderr,
                     "FAIL: spectral error vs refined reference %.4f C "
                     "exceeds the documented %.2f C bound\n",
                     vs_refined, kExactnessBound);
        return 1;
    }
    if (vs_production > shadow_bound) {
        std::fprintf(stderr,
                     "FAIL: per-step divergence %.4f C exceeds the "
                     "checked-build shadow tolerance %.2f C\n",
                     vs_production, shadow_bound);
        return 1;
    }
    return 0;
}
