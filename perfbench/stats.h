/**
 * @file
 * Summary statistics the benchmark reports: medians, nearest-rank
 * percentiles with the number of samples beyond them, and geometric
 * means. Header-only so the unit tests exercise exactly this code.
 */

#ifndef PHLOEM_PERFBENCH_STATS_H
#define PHLOEM_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** 1-based nearest rank of percentile p (0 < p <= 100) among n samples. */
inline size_t
percentileRank(size_t n, double p)
{
    auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, n);
}

/** Samples ranked above percentile p: the tail a pXX value rests on. */
inline size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - percentileRank(n, p);
}

/** Nearest-rank percentile p of the samples; 0 if empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[percentileRank(v.size(), p) - 1];
}

/** Geometric mean of strictly positive values; 0 if empty. */
inline double
gmean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * Sum over kernels of one statistic of a per-kernel sample field:
 * percentile p, or the median when p is 50.
 */
template <typename K>
double
sumOver(const std::vector<K>& kernels, std::vector<double> K::*field,
        double p = 50)
{
    double s = 0;
    for (const auto& k : kernels)
        s += p == 50 ? median(k.*field) : percentile(k.*field, p);
    return s;
}

} // namespace perfbench

#endif // PHLOEM_PERFBENCH_STATS_H
