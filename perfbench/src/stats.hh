/**
 * @file
 * Order statistics for reported timings: the median, nearest-rank
 * percentiles, and the tail rule — a timing distribution is reported
 * at the highest standard percentile that still has at least ten
 * samples beyond it, together with the sample count, so a tail is
 * never read off one or two outliers.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the middle two for an even count); 0 if empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the smallest sample with at least
 * @p pct percent of the samples at or below it. 0 if empty.
 */
double percentile(std::vector<double> v, double pct);

/** Samples strictly above the nearest rank of @p pct among @p n. */
std::size_t samplesBeyond(std::size_t n, double pct);

/** The tail a distribution of @p n samples supports. */
struct Tail
{
    double pct = 0.0;        //!< 0 when not even the median qualifies
    double value = 0.0;
    std::size_t beyond = 0;  //!< samples above the reported rank
    std::size_t samples = 0;
};

/**
 * The highest of the 50th, 90th, 99th, 99.9th and 99.99th
 * percentiles with at least @p minBeyond samples beyond its rank.
 */
Tail tailPercentile(const std::vector<double> &v,
                    std::size_t minBeyond = 10);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
