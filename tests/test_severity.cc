/** @file Unit tests for MLTD and the Hotspot-Severity metric. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "hotspot/severity.hh"

using namespace boreas;

TEST(Severity, PaperAnchorsAreExactlyOne)
{
    // Fig. 1: severity is 1.0 at (115, 0), (95, 20) and (80, 40).
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.severity(115.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(model.severity(95.0, 20.0), 1.0);
    EXPECT_DOUBLE_EQ(model.severity(80.0, 40.0), 1.0);
}

TEST(Severity, ReferenceTemperatureIsZeroSeverity)
{
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.severity(45.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(model.severity(45.0, 30.0), 0.0);
    // Below reference clamps to zero.
    EXPECT_DOUBLE_EQ(model.severity(20.0, 0.0), 0.0);
}

class SeverityMonotonicity
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(SeverityMonotonicity, IncreasesWithTempAndMltd)
{
    const auto [t, m] = GetParam();
    SeverityModel model;
    EXPECT_GT(model.severity(t + 5.0, m), model.severity(t, m));
    EXPECT_GE(model.severity(t, m + 5.0), model.severity(t, m));
    if (t > 45.0) {
        EXPECT_GT(model.severity(t, m + 5.0), model.severity(t, m));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeverityMonotonicity,
    ::testing::Combine(::testing::Values(50.0, 70.0, 90.0, 110.0),
                       ::testing::Values(0.0, 10.0, 25.0, 45.0)));

TEST(Severity, CriticalTempPiecewiseSegments)
{
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.criticalTemp(0.0), 115.0);
    EXPECT_DOUBLE_EQ(model.criticalTemp(10.0), 105.0);
    EXPECT_DOUBLE_EQ(model.criticalTemp(20.0), 95.0);
    EXPECT_DOUBLE_EQ(model.criticalTemp(30.0), 87.5);
    EXPECT_DOUBLE_EQ(model.criticalTemp(40.0), 80.0);
}

TEST(Severity, CriticalTempClampsAtFloor)
{
    SeverityModel model;
    EXPECT_GE(model.criticalTemp(100.0), model.params().tCritFloor);
    EXPECT_DOUBLE_EQ(model.criticalTemp(1000.0),
                     model.params().tCritFloor);
}

TEST(Severity, NegativeMltdTreatedAsUniform)
{
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.criticalTemp(-5.0), 115.0);
}

TEST(SeverityDeathTest, RejectsNonDecreasingAnchors)
{
    SeverityParams bad;
    bad.tCritMid = 120.0; // above tCritUniform
    EXPECT_DEATH(SeverityModel{bad}, "decreasing");
}

TEST(Mltd, UniformFieldIsZero)
{
    SeverityModel model;
    const std::vector<Celsius> temps(64, 70.0);
    const auto mltd = model.mltdField(temps, 8, 8, 0.25e-3);
    for (Celsius m : mltd)
        EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST(Mltd, SingleHotCellSeesDropToNeighbors)
{
    SeverityModel model; // radius 1 mm
    const int nx = 8, ny = 8;
    std::vector<Celsius> temps(nx * ny, 50.0);
    temps[3 * nx + 3] = 90.0;
    // Cell size 0.5 mm -> radius 2 cells.
    const auto mltd = model.mltdField(temps, nx, ny, 0.5e-3);
    EXPECT_DOUBLE_EQ(mltd[3 * nx + 3], 40.0);
    // The cold neighbors see no drop (they ARE the minimum).
    EXPECT_DOUBLE_EQ(mltd[0], 0.0);
}

TEST(Mltd, RadiusLimitsVisibility)
{
    SeverityParams params;
    params.mltdRadius = 0.5e-3; // 1 cell at 0.5 mm cells
    SeverityModel model(params);
    const int nx = 9, ny = 9;
    std::vector<Celsius> temps(nx * ny, 80.0);
    temps[0] = 40.0; // cold corner
    const auto mltd = model.mltdField(temps, nx, ny, 0.5e-3);
    // Adjacent cell sees the drop; a cell 4 away does not.
    EXPECT_DOUBLE_EQ(mltd[1], 40.0);
    EXPECT_DOUBLE_EQ(mltd[5], 0.0);
}

TEST(Mltd, GradientFieldDropWithinWindow)
{
    SeverityModel model;
    const int nx = 16, ny = 4;
    std::vector<Celsius> temps(nx * ny);
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            temps[y * nx + x] = 50.0 + 2.0 * x; // 2 C per cell in x
    // Cell size 0.25 mm -> radius 4 cells; interior cell sees its
    // value minus the cell 4 to the left.
    const auto mltd = model.mltdField(temps, nx, ny, 0.25e-3);
    EXPECT_DOUBLE_EQ(mltd[1 * nx + 8], 8.0);
    // Leftmost cell is the local minimum.
    EXPECT_DOUBLE_EQ(mltd[1 * nx + 0], 0.0);
}

TEST(SeverityEvaluate, FindsArgmaxAndFields)
{
    SeverityModel model;
    const int nx = 8, ny = 8;
    std::vector<Celsius> temps(nx * ny, 60.0);
    const int hot = 4 * nx + 4;
    temps[hot] = 100.0;
    std::vector<double> per_cell;
    const SeveritySnapshot snap =
        model.evaluate(temps, nx, ny, 0.5e-3, &per_cell);
    EXPECT_EQ(snap.argmaxCell, hot);
    EXPECT_DOUBLE_EQ(snap.tempAtMax, 100.0);
    EXPECT_DOUBLE_EQ(snap.mltdAtMax, 40.0);
    EXPECT_DOUBLE_EQ(snap.maxTemp, 100.0);
    EXPECT_DOUBLE_EQ(snap.maxMltd, 40.0);
    ASSERT_EQ(per_cell.size(), temps.size());
    EXPECT_DOUBLE_EQ(per_cell[hot], snap.maxSeverity);
    // (100, 40): T_crit = 80, so severity = 55/35.
    EXPECT_NEAR(snap.maxSeverity, 55.0 / 35.0, 1e-12);
}

TEST(SeverityEvaluate, AdvancedHotspotBeatsUniformHeat)
{
    // The core thesis: a chip at uniform 94 C is safe, but an 85 C
    // hotspot over a 50 C background is NOT, despite being cooler.
    SeverityModel model;
    const int nx = 8, ny = 8;

    std::vector<Celsius> uniform(nx * ny, 94.0);
    const auto uni =
        model.evaluate(uniform, nx, ny, 0.5e-3);
    EXPECT_LT(uni.maxSeverity, 1.0);

    std::vector<Celsius> spiky(nx * ny, 50.0);
    spiky[3 * nx + 3] = 85.0;
    const auto spike = model.evaluate(spiky, nx, ny, 0.5e-3);
    EXPECT_GT(spike.maxSeverity, 1.0);
    EXPECT_LT(spike.maxTemp, uni.maxTemp);
}

namespace
{

/** Cell size that makes the default 1 mm radius exactly w cells. */
Meters
cellSizeForHalfWidth(int w)
{
    return SeverityParams{}.mltdRadius / w;
}

/** Brute-force O(cells * (2w+1)^2) MLTD: the reference oracle. */
std::vector<Celsius>
oracleMltd(const std::vector<Celsius> &temps, int nx, int ny, int w)
{
    std::vector<Celsius> mltd(temps.size());
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            double lo = temps[y * nx + x];
            for (int yy = std::max(0, y - w); yy <= std::min(ny - 1, y + w);
                 ++yy) {
                for (int xx = std::max(0, x - w);
                     xx <= std::min(nx - 1, x + w); ++xx)
                    lo = std::min(lo, temps[yy * nx + xx]);
            }
            mltd[y * nx + x] = temps[y * nx + x] - lo;
        }
    }
    return mltd;
}

/** Cell-by-cell severity scan over the oracle field. */
SeveritySnapshot
oracleEvaluate(const SeverityModel &model,
               const std::vector<Celsius> &temps, int nx, int ny, int w,
               std::vector<double> *per_cell)
{
    const std::vector<Celsius> mltd = oracleMltd(temps, nx, ny, w);
    SeveritySnapshot snap;
    per_cell->assign(temps.size(), 0.0);
    for (size_t i = 0; i < temps.size(); ++i) {
        const double sev = model.severity(temps[i], mltd[i]);
        (*per_cell)[i] = sev;
        if (sev > snap.maxSeverity || snap.argmaxCell < 0) {
            snap.maxSeverity = sev;
            snap.argmaxCell = static_cast<int>(i);
            snap.tempAtMax = temps[i];
            snap.mltdAtMax = mltd[i];
        }
        snap.maxTemp = std::max(snap.maxTemp, temps[i]);
        snap.maxMltd = std::max(snap.maxMltd, mltd[i]);
    }
    return snap;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Random fields in [45, 125) C; with `ties`, values come from a grid
 * of 8 levels so equal temperatures, window minima and severities
 * (the argmax tie-break) are common.
 */
std::vector<Celsius>
randomField(int nx, int ny, uint64_t seed, bool ties)
{
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> uniform(45.0, 125.0);
    std::uniform_int_distribution<int> level(0, 7);
    std::vector<Celsius> temps(static_cast<size_t>(nx) * ny);
    for (Celsius &t : temps)
        t = ties ? 45.0 + 10.0 * level(gen) : uniform(gen);
    return temps;
}

class SeverityKernelDiff
    : public ::testing::TestWithParam<
          std::tuple<std::pair<int, int>, int, bool>>
{
};

TEST_P(SeverityKernelDiff, MatchesBruteForceOracleBitForBit)
{
    const auto [shape, w, ties] = GetParam();
    const auto [nx, ny] = shape;
    const SeverityModel model;
    // The kernel clamps the half-width to the grid; the oracle's
    // window is clipped at the edges, so any w >= the grid is the same.
    const Meters cell = cellSizeForHalfWidth(w);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const auto temps = randomField(nx, ny, seed * 7919 + w, ties);
        EXPECT_TRUE(sameBits(model.mltdField(temps, nx, ny, cell),
                             oracleMltd(temps, nx, ny, w)))
            << nx << "x" << ny << " w=" << w << " seed=" << seed;

        std::vector<double> per_cell, oracle_cells;
        const SeveritySnapshot got =
            model.evaluate(temps, nx, ny, cell, &per_cell);
        const SeveritySnapshot want =
            oracleEvaluate(model, temps, nx, ny, w, &oracle_cells);
        EXPECT_TRUE(sameBits(per_cell, oracle_cells));
        EXPECT_EQ(got.argmaxCell, want.argmaxCell);
        EXPECT_TRUE(sameBits(got.maxSeverity, want.maxSeverity));
        EXPECT_TRUE(sameBits(got.tempAtMax, want.tempAtMax));
        EXPECT_TRUE(sameBits(got.mltdAtMax, want.mltdAtMax));
        EXPECT_TRUE(sameBits(got.maxTemp, want.maxTemp));
        EXPECT_TRUE(sameBits(got.maxMltd, want.maxMltd));

        // Without the per-cell field the snapshot is the same.
        const SeveritySnapshot bare = model.evaluate(temps, nx, ny, cell);
        EXPECT_EQ(bare.argmaxCell, want.argmaxCell);
        EXPECT_TRUE(sameBits(bare.maxSeverity, want.maxSeverity));
        EXPECT_TRUE(sameBits(bare.mltdAtMax, want.mltdAtMax));
        EXPECT_TRUE(sameBits(bare.maxMltd, want.maxMltd));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SeverityKernelDiff,
    ::testing::Combine(
        ::testing::Values(std::make_pair(1, 37), std::make_pair(37, 1),
                          std::make_pair(13, 7), std::make_pair(64, 64)),
        ::testing::Values(1, 3, 8, 100),
        ::testing::Bool()));

} // namespace

TEST(SeverityEvaluate, TiesKeepTheFirstCellInRowMajorOrder)
{
    // Two identical hotspots: the earlier one (row-major) wins.
    SeverityModel model;
    const int nx = 16, ny = 16;
    std::vector<Celsius> temps(nx * ny, 50.0);
    temps[3 * nx + 12] = 90.0;
    temps[9 * nx + 2] = 90.0;
    const SeveritySnapshot snap =
        model.evaluate(temps, nx, ny, cellSizeForHalfWidth(2));
    EXPECT_EQ(snap.argmaxCell, 3 * nx + 12);
}

TEST(Mltd, RadiusBeyondTheDieSeesTheGlobalMinimum)
{
    SeverityModel model;
    const int nx = 13, ny = 7;
    const auto temps = randomField(nx, ny, 99, false);
    const double lo = *std::min_element(temps.begin(), temps.end());
    // 1 mm over 1 um cells is a 1000-cell half-width.
    const auto mltd = model.mltdField(temps, nx, ny, 1.0e-6);
    for (size_t i = 0; i < temps.size(); ++i)
        EXPECT_TRUE(sameBits(mltd[i], temps[i] - lo)) << i;
    // A cell size small enough to overflow the quotient is clamped too.
    const auto tiny = model.mltdField(temps, nx, ny, 1.0e-320);
    EXPECT_TRUE(sameBits(tiny, mltd));
}

TEST(SeverityDeathTest, RejectsNonPositiveOrNonFiniteCellSize)
{
    SeverityModel model;
    const std::vector<Celsius> temps(16, 60.0);
    EXPECT_DEATH(model.mltdField(temps, 4, 4, 0.0), "cell size");
    EXPECT_DEATH(model.mltdField(temps, 4, 4, -1.0e-3), "cell size");
    EXPECT_DEATH(model.evaluate(temps, 4, 4, 0.0), "cell size");
    EXPECT_DEATH(
        model.evaluate(temps, 4, 4,
                       std::numeric_limits<double>::infinity()),
        "cell size");
    EXPECT_DEATH(
        model.evaluate(temps, 4, 4,
                       std::numeric_limits<double>::quiet_NaN()),
        "cell size");
}
