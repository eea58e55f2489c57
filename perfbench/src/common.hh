/**
 * @file
 * Pieces the three workloads share: arguments, the result every run
 * prints, seeded orders and digests, the two suite programs, the
 * builder configuration, set-up shard builds, and the single-thread
 * replay decomposition that the traced runs time layer by layer.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/library_set.hh"
#include "trace.hh"
#include "uarch/config.hh"
#include "workload/generator.hh"

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

/** What one run reports: operation counts, metrics, estimate digest. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::uint64_t digest = 0xcbf29ce484222325ull; //!< FNV-1a basis

    /** Count one checked operation; @p ok false counts it failed. */
    void check(bool ok, const std::string &what);

    /** Fold @p v into the estimate digest. */
    void mix(std::uint64_t v);
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Print a workload's job walls to stderr (for the reader, not parsed). */
void logJobs(const char *workload, const std::vector<double> &jobs);

/** Deterministic 64-bit value for (@p seed, @p stream). */
std::uint64_t seedMix(std::uint64_t seed, std::uint64_t stream);

/** A seed-shuffled permutation of 0..n-1. */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed,
                                     std::uint64_t stream);

/** Process peak resident set (VmHWM), MiB. */
double peakRssMb();

/** Scratch directory under the working directory, removed on exit. */
class WorkDir
{
  public:
    WorkDir();
    ~WorkDir();
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    /** @p name inside the directory (not created). */
    std::string path(const std::string &name) const;

    const std::string &root() const { return root_; }

  private:
    std::string root_;
};

/** The two suite programs every workload uses. */
inline const char *const kProfiles[2] = {"gcc-2", "swim"};

/** A generated suite program and its sample design. */
struct Bench
{
    std::string name;
    lp::Program prog;
    lp::SampleDesign design;
};

/**
 * Generate suite benchmark @p name with its length scaled by
 * @p scale (1 = the suite profile as defined), sampled at
 * @p points windows of the Table 1 design.
 */
Bench makeBench(const std::string &name, double scale,
                std::uint64_t points);

/** Table 1 library maxima: 16-way caches, both Table 1 predictors. */
lp::LivePointBuilderConfig tableOneBuilderConfig(bool delta);

/**
 * Build every bench's library concurrently (one creation pass per
 * thread) and append them to a fresh set at @p dir in @p benches
 * order.
 */
void
buildSetConcurrently(const std::vector<Bench> &benches,
                     const lp::LivePointBuilderConfig &cfg,
                     const std::string &dir);

/** Open @p dir and every shard in it (the set-up open). */
lp::LibrarySet openSet(const std::string &dir, Tracer &tr);

/**
 * Single-thread layer decomposition of a replay over @p lib under
 * @p cfgs, in the engine's order for @p shuffleSeed: every point is
 * decoded in that order and in stored order, and each call into a
 * layer is wrapped in its own span. Point and chain-byte counts
 * accumulate into @p acc.
 */
struct DecompAccum
{
    double points = 0;
    double chainBytes = 0;
};

void decomposeReplay(Tracer &tr, const lp::Program &prog,
                     const lp::LivePointLibrary &lib,
                     const std::vector<lp::CoreConfig> &cfgs,
                     std::uint64_t shuffleSeed, DecompAccum &acc);

/**
 * Per-layer replay metrics from the spans decomposeReplay() left in
 * @p tr; @p engineWall and @p engineThreads describe the multi-thread
 * run the single-thread busy time is compared against.
 */
void replayLayerMetrics(std::map<std::string, double> t,
                        const DecompAccum &acc, double engineWall,
                        unsigned engineThreads, Result &res);

/**
 * The tracing overhead of @p pass: the traced wall (one run into
 * @p tr) minus the untraced wall, taken as the mean of an untraced run
 * just before and one just after it, so drift of the host's speed
 * cancels to first order. A first untraced run warms up and is not
 * timed. @p pass must redo the same work each time.
 */
double tracingOverhead(Tracer &tr,
                       const std::function<void(Tracer &)> &pass);

/** Spans named @p name whose parent span is named @p parent, seconds. */
std::vector<double> spanDurations(const Tracer &tr, const char *parent,
                                  const char *name);

/**
 * A workload: set up, measure for a.seconds, check outputs. Untraced
 * (tr disabled) it fills every end-to-end metric; traced it fills the
 * per-layer metrics it measures, including trace.overhead_s.
 */
using Workload = void (*)(const Args &a, Tracer &tr, Result &res);

void runBuild(const Args &a, Tracer &tr, Result &res);
void runReplay(const Args &a, Tracer &tr, Result &res);
void runGrid(const Args &a, Tracer &tr, Result &res);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
