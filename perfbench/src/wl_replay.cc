/**
 * @file
 * Workload `replay` — the decode-bound read path. Set-up builds the
 * same delta-encoded gcc-2 and swim libraries as `build` and opens
 * them; the measured job replays both with runLivePoints under the
 * 8-way Table 1 configuration, shards in seed-shuffled order and
 * points in the seed's shuffled replay order, two simulation workers,
 * automatic decode producers, no early stopping. Shuffled order over
 * delta chains makes every decode walk its chain, so decode costs
 * more than simulation here. Each job's estimates must equal the
 * first job's bit for bit; the traced run also checks them against a
 * one-worker replay and splits a single-thread replay into its layers.
 */

#include "common.hh"
#include "core/replay.hh"
#include "core/runners.hh"
#include "stats.hh"
#include "store/result_store.hh"

namespace perfbench
{

namespace
{

constexpr double kScale = 0.1;
constexpr std::uint64_t kPoints = 300;
constexpr int kSetups = 3;

} // namespace

void
runReplay(const Args &a, Tracer &tr, Result &res)
{
    WorkDir work;
    std::vector<double> setups;
    std::vector<Bench> benches;
    lp::LibrarySet set;
    const std::string dir = work.path("set");
    for (int k = 0; k < (a.trace ? 1 : kSetups); ++k) {
        const auto t0 = Clock::now();
        benches.clear();
        {
            Scope s(tr, "workload.generate");
            for (const char *name : kProfiles)
                benches.push_back(makeBench(name, kScale, kPoints));
        }
        set = lp::LibrarySet();
        buildSetConcurrently(benches, tableOneBuilderConfig(true), dir);
        set = openSet(dir, tr);
        setups.push_back(secondsSince(t0));
    }

    const lp::CoreConfig cfg = lp::CoreConfig::eightWay();
    const std::vector<std::size_t> order =
        seededOrder(benches.size(), a.seed, 2);
    lp::LivePointRunOptions opt;
    opt.threads = 2;
    opt.decodeThreads = 0;
    opt.shuffleSeed = seedMix(a.seed, 3) | 1;
    opt.stopAtConfidence = false;

    std::vector<std::uint64_t> ref(benches.size(), 0);
    auto shard = [&](std::size_t k) -> const lp::LivePointLibrary & {
        return set.shard(set.find(benches[k].name));
    };
    // One job: replay every library; returns its wall seconds.
    auto job = [&](const lp::LivePointRunOptions &o, double &points,
                   std::uint64_t &bytesDecoded) {
        double secs = 0;
        for (const std::size_t k : order) {
            const auto t0 = Clock::now();
            lp::LivePointRunResult r;
            {
                Scope s(tr, "core.replay.run");
                r = lp::runLivePoints(benches[k].prog, shard(k), cfg, o);
            }
            secs += secondsSince(t0);
            points += static_cast<double>(r.processed);
            bytesDecoded += r.bytesDecoded;
            const std::uint64_t bits = lp::doubleBits(r.cpi());
            if (!ref[k])
                ref[k] = bits;
            res.check(r.processed == kPoints && bits == ref[k],
                      "replay: " + benches[k].name + " estimate (threads=" +
                          std::to_string(o.threads) + ") matches");
        }
        return secs;
    };

    double bytes = 0;
    double points = 0;
    for (std::size_t k = 0; k < benches.size(); ++k) {
        const std::size_t i = set.find(benches[k].name);
        bytes += static_cast<double>(set.fileBytes(i));
        points += static_cast<double>(set.points(i));
    }

    if (!a.trace) {
        std::vector<double> jobs;
        std::vector<double> rates;
        const auto start = Clock::now();
        while (jobs.size() < 2 || secondsSince(start) < a.seconds) {
            double pts = 0;
            std::uint64_t decoded = 0;
            const double secs = job(opt, pts, decoded);
            jobs.push_back(secs);
            rates.push_back(pts / secs);
        }
        res.metrics["setup_s"] = median(setups);
        res.metrics["job_s"] = median(jobs);
        res.metrics["work_per_s"] = median(rates);
        res.metrics["bytes_per_point"] = bytes / points;
        logJobs("replay", jobs);
    } else {
        double pts = 0;
        std::uint64_t decoded = 0;
        const double wall = job(opt, pts, decoded);
        lp::LivePointRunOptions one = opt;
        one.threads = 1;
        double pts1 = 0;
        std::uint64_t decoded1 = 0;
        job(one, pts1, decoded1);

        DecompAccum acc;
        const double overhead = tracingOverhead(tr, [&](Tracer &t) {
            acc = DecompAccum{};
            for (const std::size_t k : order)
                decomposeReplay(t, benches[k].prog, shard(k), {cfg},
                                opt.shuffleSeed, acc);
        });
        lp::ReplayEngineOptions eo;
        eo.threads = opt.threads;
        eo.decodeThreads = opt.decodeThreads;
        replayLayerMetrics(totalsByName(tr.spans()), acc, wall,
                           opt.threads + lp::replayDecodeThreads(eo), res);
        res.metrics["core.replay.bytes_decoded"] =
            static_cast<double>(decoded);
        res.metrics["trace.overhead_s"] = overhead;
    }
    for (const std::uint64_t bits : ref)
        res.mix(bits);
}

} // namespace perfbench
