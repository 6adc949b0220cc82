/** @file Unit tests for the DVFS controllers. */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "control/boreas_controller.hh"
#include "control/static_controllers.hh"
#include "control/thermal_controller.hh"
#include "ml/feature_schema.hh"

using namespace boreas;

namespace
{

/** A context with a single sensor reading at the given temperature. */
DecisionContext
makeContext(const VFTable &vf, GHz freq, Celsius reading,
            const CounterSet *counters = nullptr)
{
    DecisionContext ctx;
    ctx.currentFreq = freq;
    ctx.counters = counters;
    ctx.sensorReadings = {reading};
    ctx.vf = &vf;
    return ctx;
}

/** A critical-temp table that linearly tightens with frequency. */
CriticalTempTable
syntheticTable(const VFTable &vf)
{
    CriticalTempTable t;
    for (int i = 0; i < vf.numPoints(); ++i)
        t.criticalTemp.push_back(100.0 - 3.0 * i); // 100 .. 64
    return t;
}

} // namespace

TEST(FixedFrequencyController, AlwaysReturnsItsFrequency)
{
    VFTable vf;
    FixedFrequencyController c("oracle-x", 4.25);
    EXPECT_STREQ(c.name(), "oracle-x");
    for (GHz f : {2.0, 3.75, 5.0}) {
        const auto ctx = makeContext(vf, f, 200.0);
        EXPECT_DOUBLE_EQ(c.decide(ctx), 4.25);
    }
}

TEST(ThermalController, ThrottlesWhenAboveThreshold)
{
    VFTable vf;
    ThermalThresholdController c("TH-00", syntheticTable(vf), 0.0, 0);
    // Threshold at 4.0 GHz (index 8) is 100-24=76.
    const auto hot = makeContext(vf, 4.0, 80.0);
    EXPECT_DOUBLE_EQ(c.decide(hot), 3.75);
}

TEST(ThermalController, BoostsWhenSafelyBelowNextThreshold)
{
    VFTable vf;
    ThermalThresholdController c("TH-00", syntheticTable(vf), 0.0, 0);
    // Threshold at 4.25 (index 9) is 73; a 50 C reading allows boost.
    const auto cool = makeContext(vf, 4.0, 50.0);
    EXPECT_DOUBLE_EQ(c.decide(cool), 4.25);
}

TEST(ThermalController, HoldsInTheDeadBand)
{
    VFTable vf;
    ThermalThresholdController c("TH-00", syntheticTable(vf), 0.0, 0);
    // Reading between thr(next)=73 and thr(cur)=76: hold.
    const auto mid = makeContext(vf, 4.0, 74.0);
    EXPECT_DOUBLE_EQ(c.decide(mid), 4.0);
}

TEST(ThermalController, SaturatesAtGridEdges)
{
    VFTable vf;
    ThermalThresholdController c("TH-00", syntheticTable(vf), 0.0, 0);
    const auto cold_at_max = makeContext(vf, 5.0, 10.0);
    EXPECT_DOUBLE_EQ(c.decide(cold_at_max), 5.0);
    const auto hot_at_min = makeContext(vf, 2.0, 500.0);
    EXPECT_DOUBLE_EQ(c.decide(hot_at_min), 2.0);
}

TEST(ThermalController, RelaxedOffsetAllowsHigherTemps)
{
    VFTable vf;
    ThermalThresholdController th00("TH-00", syntheticTable(vf), 0.0, 0);
    ThermalThresholdController th10("TH-10", syntheticTable(vf), 10.0, 0);
    // 80 C at 4.0 GHz: TH-00 throttles (thr 76), TH-10 boosts
    // (thr(4.25) = 73 + 10 = 83 > 80).
    const auto ctx = makeContext(vf, 4.0, 80.0);
    EXPECT_DOUBLE_EQ(th00.decide(ctx), 3.75);
    EXPECT_DOUBLE_EQ(th10.decide(ctx), 4.25);
}

TEST(ThermalController, InfiniteThresholdNeverThrottles)
{
    VFTable vf;
    CriticalTempTable t;
    t.criticalTemp.assign(vf.numPoints(),
                          std::numeric_limits<Celsius>::infinity());
    ThermalThresholdController c("TH-00", t, 0.0, 0);
    const auto ctx = makeContext(vf, 3.0, 500.0);
    EXPECT_DOUBLE_EQ(c.decide(ctx), 3.25);
}

namespace
{

/**
 * Train a tiny severity model on synthetic data where severity depends
 * linearly on temperature and frequency:
 *     sev = (temp - 45)/55 + 0.1 * (freq - 4.0)
 * so higher temperature and higher frequency both push severity up.
 */
GBTRegressor
syntheticSeverityModel()
{
    Dataset d(deployedFeatureNames());
    Rng rng(1);
    const size_t nf = deployedFeatureNames().size();
    for (int i = 0; i < 4000; ++i) {
        std::vector<double> x(nf, 0.0);
        const double temp = rng.uniform(45.0, 110.0);
        const double freq = 2.0 + 0.25 * rng.uniformInt(0, 12);
        x[nf - 2] = temp; // temperature_sensor_data
        x[nf - 1] = freq; // frequency
        const double sev = (temp - 45.0) / 55.0 + 0.1 * (freq - 4.0);
        d.addRow(x, sev, i % 4);
    }
    GBTRegressor model;
    GBTParams params;
    params.nEstimators = 150;
    model.train(d, params);
    return model;
}

} // namespace

TEST(BoreasController, ThrottlesOnPredictedUnsafeSeverity)
{
    VFTable vf;
    const GBTRegressor model = syntheticSeverityModel();
    BoreasController c("ML00", &model, deployedFeatureNames(), 0.0, 0);

    CounterSet counters;
    // temp 108, f 4.0 -> sev ~ 1.145 > 1: throttle.
    const auto ctx = makeContext(vf, 4.0, 108.0, &counters);
    EXPECT_DOUBLE_EQ(c.decide(ctx), 3.75);
}

TEST(BoreasController, BoostsWhenHeadroomPredicted)
{
    VFTable vf;
    const GBTRegressor model = syntheticSeverityModel();
    BoreasController c("ML00", &model, deployedFeatureNames(), 0.0, 0);
    CounterSet counters;
    // temp 60 -> sev ~ 0.27 even at +1 step: boost.
    const auto ctx = makeContext(vf, 4.0, 60.0, &counters);
    EXPECT_DOUBLE_EQ(c.decide(ctx), 4.25);
}

TEST(BoreasController, GuardbandOrdersAggressiveness)
{
    VFTable vf;
    const GBTRegressor model = syntheticSeverityModel();
    BoreasController ml00("ML00", &model, deployedFeatureNames(), 0.0, 0);
    BoreasController ml05("ML05", &model, deployedFeatureNames(), 0.05,
                          0);
    BoreasController ml10("ML10", &model, deployedFeatureNames(), 0.10,
                          0);
    CounterSet counters;
    // Pick a temperature where predicted severity sits between the
    // thresholds: sev(T=97) ~ 0.945.
    const auto ctx = makeContext(vf, 4.0, 97.0, &counters);
    const GHz f00 = ml00.decide(ctx);
    const GHz f05 = ml05.decide(ctx);
    const GHz f10 = ml10.decide(ctx);
    EXPECT_GE(f00, f05);
    EXPECT_GE(f05, f10);
    EXPECT_GT(f00, f10); // 0 and 10% guardbands must differ here
}

TEST(BoreasController, PredictSeverityIncreasesWithCandidate)
{
    VFTable vf;
    const GBTRegressor model = syntheticSeverityModel();
    BoreasController c("ML05", &model, deployedFeatureNames(), 0.05, 0);
    CounterSet counters;
    const auto ctx = makeContext(vf, 3.0, 85.0, &counters);
    EXPECT_LT(c.predictSeverity(ctx, 2.0),
              c.predictSeverity(ctx, 5.0));
}

TEST(BoreasController, PredictSeverityIsTheModelOnSelectedColumns)
{
    // The controller serves every query through model.predict on the
    // model's own columns picked out of the full telemetry schema, so
    // the two agree to the bit.
    VFTable vf;
    const GBTRegressor model = syntheticSeverityModel();
    const std::vector<std::string> &names = deployedFeatureNames();
    BoreasController c("ML05", &model, names, 0.05, 0);
    const std::vector<size_t> cols = featureIndicesOf(names);

    Rng rng(7);
    CounterSet counters;
    for (double &v : counters.values)
        v = rng.uniform(0.0, 1e6);
    for (const Celsius reading : {55.0, 85.0, 104.0}) {
        const auto ctx = makeContext(vf, 4.0, reading, &counters);
        for (const GHz f : vf.frequencies()) {
            const std::vector<double> full =
                assembleFeatures(counters, reading, f);
            std::vector<double> x;
            for (size_t col : cols)
                x.push_back(full[col]);
            const double want = model.predict(x);
            const double got = c.predictSeverity(ctx, f);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
                << reading << " C at " << f << " GHz";
        }
    }
}

TEST(BoreasControllerDeathTest, RequiresTrainedModel)
{
    GBTRegressor untrained;
    EXPECT_DEATH(BoreasController("ML05", &untrained,
                                  deployedFeatureNames(), 0.05, 0),
                 "trained");
}

TEST(ThermalController, OffsetAppliesToThresholdLookup)
{
    VFTable vf;
    CriticalTempTable t = syntheticTable(vf);
    EXPECT_DOUBLE_EQ(t.thresholdAt(vf, 4.0, 0.0), 76.0);
    EXPECT_DOUBLE_EQ(t.thresholdAt(vf, 4.0, 5.0), 81.0);
    EXPECT_DOUBLE_EQ(t.thresholdAt(vf, 2.0, 10.0), 110.0);
}

TEST(BoreasController, HoldsWhenOnlyNextStepIsUnsafe)
{
    VFTable vf;
    const GBTRegressor model = syntheticSeverityModel();
    BoreasController c("ML00", &model, deployedFeatureNames(), 0.0, 0);
    CounterSet counters;
    // sev(T, f) ~ (T-45)/55 + 0.1(f-4): at T=99, f=4.0 -> 0.98 (safe),
    // f=4.25 -> ~1.01 (unsafe): controller must hold at 4.0.
    const auto ctx = makeContext(vf, 4.0, 99.0, &counters);
    EXPECT_DOUBLE_EQ(c.decide(ctx), 4.0);
}
