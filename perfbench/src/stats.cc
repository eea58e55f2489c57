#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of @p pct among @p n samples. */
std::size_t
nearestRank(std::size_t n, double pct)
{
    // The epsilon absorbs binary rounding (99.9% of 10000 must be
    // rank 9990, not 9991).
    const double r =
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), pct) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n ? n - nearestRank(n, pct) : 0;
}

Tail
tailPercentile(const std::vector<double> &v, std::size_t minBeyond)
{
    Tail t;
    t.samples = v.size();
    for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
        const std::size_t beyond = samplesBeyond(v.size(), pct);
        if (beyond < minBeyond)
            break;
        t.pct = pct;
        t.beyond = beyond;
        t.value = percentile(v, pct);
    }
    return t;
}

} // namespace perfbench
