#include "hotspot/severity.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace boreas
{

SeverityModel::SeverityModel(const SeverityParams &params)
    : params_(params),
      slopeMid_((params.tCritMid - params.tCritUniform) / params.mltdMid),
      slopeHigh_((params.tCritHigh - params.tCritMid) /
                 (params.mltdHigh - params.mltdMid))
{
    boreas_assert(params_.tCritUniform > params_.tCritMid &&
                  params_.tCritMid > params_.tCritHigh &&
                  params_.tCritHigh > params_.tCritFloor,
                  "severity anchors must be decreasing");
    boreas_assert(params_.mltdHigh > params_.mltdMid &&
                  params_.mltdMid > 0.0, "bad MLTD anchors");
    boreas_assert(params_.tRef < params_.tCritFloor,
                  "tRef must be below the critical floor");
}

Celsius
SeverityModel::criticalTemp(Celsius mltd) const
{
    const SeverityParams &p = params_;
    // Every segment is evaluated and one selected, so evaluate()'s
    // per-cell loop has no branches and vectorizes. Clamping MLTD at
    // 0 selects T_crit(0) = tCritUniform exactly (slopeMid_ * 0 is a
    // signed zero).
    const double m = std::max(mltd, 0.0);
    const double mid = p.tCritUniform + slopeMid_ * m;
    const double high = p.tCritMid + slopeHigh_ * (m - p.mltdMid);
    // Beyond mltdHigh: extrapolate with the last segment's slope,
    // clamped to the physical floor below.
    const double beyond = p.tCritHigh + slopeHigh_ * (m - p.mltdHigh);
    const double t_crit = m <= p.mltdMid ? mid
        : m <= p.mltdHigh                ? high
                                         : beyond;
    return std::max(t_crit, p.tCritFloor);
}

double
SeverityModel::severity(Celsius temp, Celsius mltd) const
{
    const double denom = criticalTemp(mltd) - params_.tRef;
    const double sev = (temp - params_.tRef) / denom;
    return std::max(0.0, sev);
}

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Half-width of the MLTD window in cells. Clamped to the grid before
 * rounding, so a tiny cell size never turns the radius into a huge (or
 * unspecified, for an infinite quotient) window.
 */
int
windowHalfWidth(Meters radius, Meters cell_size, int nx, int ny)
{
    boreas_assert(std::isfinite(cell_size) && cell_size > 0.0,
                  "cell size must be finite and > 0, got %g", cell_size);
    const int max_w = std::max(1, std::max(nx, ny) - 1);
    const double cells = radius / cell_size;
    if (!(cells < max_w))
        return max_w;
    return std::max(1, static_cast<int>(std::lround(cells)));
}

/**
 * Window minimum of the n values at src, half-width w, clipped at the
 * ends (van Herk/Gil-Werman). Blocks of k = 2w + 1 are anchored at -w
 * and clipped to [0, n): the window [x - w, x + w] is then the suffix
 * of one block plus the prefix of the next, or one whole block. pre
 * and suf hold n doubles each.
 */
void
rowWindowMin(const double *src, int n, int w, double *pre, double *suf,
             double *dst)
{
    const int k = 2 * w + 1;
    int last = 0; // start of the block holding n - 1
    for (int s = -w; s < n; s += k) {
        const int b = std::max(s, 0);
        const int e = std::min(s + k, n);
        last = b;
        double m = src[b];
        pre[b] = m;
        for (int j = b + 1; j < e; ++j) {
            m = std::min(m, src[j]);
            pre[j] = m;
        }
        m = src[e - 1];
        suf[e - 1] = m;
        for (int j = e - 2; j >= b; --j) {
            m = std::min(src[j], m);
            suf[j] = m;
        }
    }
    // Left edge: the window [0, x + w] starts block 0.
    const int lo = std::min(w, n);
    for (int x = 0; x < lo; ++x)
        dst[x] = std::min(suf[0], pre[std::min(x + w, n - 1)]);
    for (int x = lo; x < n - w; ++x)
        dst[x] = std::min(suf[x - w], pre[x + w]);
    // Right edge: the window [x - w, n - 1] may lie in the last block.
    for (int x = std::max(n - w, lo); x < n; ++x) {
        const int a = x - w;
        dst[x] = a >= last ? suf[a] : std::min(suf[a], pre[n - 1]);
    }
}

void
minInto(double *dst, const double *src, int n)
{
    for (int x = 0; x < n; ++x)
        dst[x] = std::min(dst[x], src[x]);
}

/**
 * Scratch that lives on the stack when it fits, as it does for the
 * 64x64 die grid, keeping the per-step path allocation-free.
 */
class Scratch
{
  public:
    explicit Scratch(size_t n)
    {
        if (n > local_.size()) {
            heap_.resize(n);
            data_ = heap_.data();
        }
    }
    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

    double *data() { return data_; }

  private:
    std::array<double, 4096> local_; // written before it is read
    std::vector<double> heap_;
    double *data_ = local_.data();
};

/**
 * Square-window minimum of an nx-by-ny grid, half-width w, clipped at
 * the borders: a van Herk/Gil-Werman row pass, then the same scheme
 * down the columns applied to whole rows of nx values at a time.
 * Streams the result: emit(y, m, extra) is called for y = 0..ny-1 in
 * order with m the nx window minima of row y and extra the caller's
 * `extra` doubles of scratch, kept across calls. Scratch is
 * O((2w + 1) * nx) doubles, never a full grid.
 */
template <class Emit>
void
windowMin(const double *temps, int nx, int ny, int w, size_t extra,
          Emit &&emit)
{
    if (nx <= 0 || ny <= 0)
        return;
    const int wx = std::min(w, nx - 1);
    const int wy = std::min(w, ny - 1);
    const int k = 2 * wy + 1;
    const size_t row_len = static_cast<size_t>(nx);

    Scratch scratch((2 * static_cast<size_t>(k) + 3) * row_len + extra);
    double *cur = scratch.data();     // this block's suffix minima
    double *next = cur + k * row_len; // the next block's rows
    double *run = next + k * row_len; // the next block's prefix min
    double *pre = run + row_len;      // row pass scratch
    double *suf = pre + row_len;
    double *caller = suf + row_len;

    // Row j of the column pass's padded input: wy rows of +inf above
    // and below the row-pass minima.
    auto fillRow = [&](int j, double *dst) {
        const int y = j - wy;
        if (y < 0 || y >= ny)
            std::fill(dst, dst + row_len, kInf);
        else
            rowWindowMin(temps + y * row_len, nx, wx, pre, suf, dst);
    };
    auto suffixMin = [&](double *block) {
        for (int o = k - 2; o >= 0; --o)
            minInto(block + o * row_len, block + (o + 1) * row_len, nx);
    };

    for (int o = 0; o < k; ++o)
        fillRow(o, cur + o * row_len);
    suffixMin(cur);
    int y = 0;
    for (int b = 0;; b += k) {
        // The window starting at block start b is exactly the block.
        emit(y++, cur, caller);
        if (y >= ny)
            return;
        // Row o of the next block ends the window that starts at
        // b + o + 1: its minimum is that row's suffix min in this
        // block combined with the next block's running prefix min.
        for (int o = 0; o < k; ++o) {
            double *r = next + o * row_len;
            fillRow(b + k + o, r);
            if (o == 0)
                std::copy(r, r + row_len, run);
            else
                minInto(run, r, nx);
            if (o < k - 1) {
                double *m = cur + (o + 1) * row_len;
                minInto(m, run, nx);
                emit(y++, m, caller);
                if (y >= ny)
                    return;
            }
        }
        suffixMin(next);
        std::swap(cur, next);
    }
}

} // namespace

std::vector<Celsius>
SeverityModel::mltdField(const std::vector<Celsius> &temps, int nx, int ny,
                         Meters cell_size) const
{
    boreas_assert(static_cast<int>(temps.size()) == nx * ny,
                  "temps size %zu != %dx%d", temps.size(), nx, ny);
    const int w = windowHalfWidth(params_.mltdRadius, cell_size, nx, ny);

    std::vector<Celsius> mltd(temps.size());
    windowMin(temps.data(), nx, ny, w, 0,
              [&](int y, const double *wmin, double *) {
                  const size_t row = static_cast<size_t>(y) * nx;
                  for (int x = 0; x < nx; ++x)
                      mltd[row + x] = temps[row + x] - wmin[x];
              });
    return mltd;
}

SeveritySnapshot
SeverityModel::evaluate(const std::vector<Celsius> &temps, int nx, int ny,
                        Meters cell_size,
                        std::vector<double> *per_cell) const
{
    boreas_assert(static_cast<int>(temps.size()) == nx * ny,
                  "temps size %zu != %dx%d", temps.size(), nx, ny);
    const int w = windowHalfWidth(params_.mltdRadius, cell_size, nx, ny);

    SeveritySnapshot snap;
    if (per_cell)
        per_cell->resize(temps.size());
    const size_t row_len = static_cast<size_t>(nx);
    windowMin(temps.data(), nx, ny, w, 3 * row_len,
              [&](int y, const double *m, double *extra) {
        // Column-wise running maxima, from the snapshot's 0.0.
        double *max_temp = extra;
        double *max_mltd = extra + row_len;
        double *sev = per_cell ? per_cell->data() + y * row_len
                               : extra + 2 * row_len;
        if (y == 0)
            std::fill(max_temp, max_temp + 2 * row_len, 0.0);
        const double *t = temps.data() + y * row_len;
        // A local copy: its constants provably do not alias the rows
        // the loop writes, so the loop vectorizes.
        const SeverityModel model = *this;
        for (int x = 0; x < nx; ++x) {
            const Celsius mltd = t[x] - m[x];
            sev[x] = model.severity(t[x], mltd);
            max_temp[x] = std::max(max_temp[x], t[x]);
            max_mltd[x] = std::max(max_mltd[x], mltd);
        }
        // Row-major scan: the first strict maximum wins.
        for (int x = 0; x < nx; ++x) {
            if (sev[x] > snap.maxSeverity || snap.argmaxCell < 0) {
                snap.maxSeverity = sev[x];
                snap.argmaxCell = static_cast<int>(y * row_len + x);
                snap.tempAtMax = t[x];
                snap.mltdAtMax = t[x] - m[x];
            }
        }
        if (y == ny - 1) {
            for (int x = 0; x < nx; ++x) {
                snap.maxTemp = std::max(snap.maxTemp, max_temp[x]);
                snap.maxMltd = std::max(snap.maxMltd, max_mltd[x]);
            }
        }
    });
    return snap;
}

} // namespace boreas
