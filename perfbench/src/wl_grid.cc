/**
 * @file
 * Workload `grid` — the service path, bound by detailed simulation.
 * Set-up builds plain (not delta) gcc-2 and swim libraries at the
 * suite's full length — the programs the daemon regenerates from the
 * profile names — and starts an in-process SvcDaemon on a Unix socket
 * with two worker slots. One SvcClient then submits cold 2 x 8-config
 * grid jobs (8-way, 16-way, and 8-way with seed-derived memory latency,
 * L2 size and L2 latency), two workers, no early stopping; a shuffle
 * seed per cold job keeps each one cold. Then it resubmits the first
 * cold job, one at a time, in a closed loop: every resubmission must
 * resolve from the result store with the cold job's CPI bits and no
 * replay. Decode is shared by the 8 configurations, so simulation
 * dominates the cold jobs and delta-chain work is bypassed.
 */

#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "common.hh"
#include "core/replay.hh"
#include "json.hh"
#include "stats.hh"
#include "store/result_store.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t kPoints = 200;
constexpr int kSetups = 3;
constexpr int kDigestJobs = 3;        //!< cold jobs in the digest
constexpr std::size_t kMemoJobs = 100; //!< p90 then has 10 samples beyond
constexpr std::size_t kCells = 16;

/** A daemon serving on its own thread; stopped and joined on exit. */
class Service
{
  public:
    Service(const lp::ServiceConfig &cfg, const std::string &socket)
        : daemon_(cfg, socket), thread_([this]() {
              try {
                  daemon_.run();
              } catch (const std::exception &e) {
                  std::fprintf(stderr, "lpbench: daemon: %s\n", e.what());
              }
          })
    {
    }

    ~Service()
    {
        daemon_.stop();
        thread_.join();
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

  private:
    lp::SvcDaemon daemon_;
    std::thread thread_;
};

lp::JobSpec
gridSpec(std::uint64_t seed)
{
    lp::JobSpec s;
    s.name = "perfbench-grid";
    for (const char *name : kProfiles) {
        lp::JobWorkloadSpec w;
        w.shard = name;
        w.profile = name;
        s.workloads.push_back(w);
    }
    auto cfg = [](const char *preset, const std::string &name) {
        lp::JobConfigSpec c;
        c.preset = preset;
        c.name = name;
        return c;
    };
    s.configs.push_back(cfg("eight", "8-way"));
    s.configs.push_back(cfg("sixteen", "16-way"));
    // Seed-derived perturbations of the 8-way machine, in pairs placed
    // on both sides of its defaults (memory 100 cycles, L2 12 cycles,
    // L2 1 MiB) so the grid's total simulation work barely depends on
    // the seed. L2 sizes stay within the 16-way maxima the libraries
    // cover (4-way, at most 2 MiB).
    const std::uint64_t dm = 5 + seedMix(seed, 101) % 21;
    const std::uint64_t dl = 1 + seedMix(seed, 102) % 4;
    const std::uint64_t small =
        seedMix(seed, 103) % 2 ? 256 << 10 : 512 << 10;
    const std::uint64_t mem[2] = {100 - dm, 100 + dm};
    const std::uint64_t lat[2] = {12 - dl, 12 + dl};
    const std::uint64_t l2[2] = {small, 2 << 20};
    for (int i = 0; i < 2; ++i) {
        lp::JobConfigSpec c = cfg("eight", "mem" + std::to_string(mem[i]));
        c.memLatency = mem[i];
        s.configs.push_back(c);
    }
    for (int i = 0; i < 2; ++i) {
        lp::JobConfigSpec c =
            cfg("eight", "l2-" + std::to_string(l2[i] >> 10) + "k");
        c.l2SizeBytes = l2[i];
        s.configs.push_back(c);
    }
    for (int i = 0; i < 2; ++i) {
        lp::JobConfigSpec c = cfg("eight", "l2lat" + std::to_string(lat[i]));
        c.l2Latency = lat[i];
        s.configs.push_back(c);
    }
    s.stopAtConfidence = false;
    s.threads = 2;
    s.decodeThreads = 0;
    return s;
}

/** The daemon's CoreConfig for @p c (preset plus overrides). */
lp::CoreConfig
materialize(const lp::JobConfigSpec &c)
{
    lp::CoreConfig cfg = c.preset == "sixteen" ? lp::CoreConfig::sixteenWay()
                                               : lp::CoreConfig::eightWay();
    if (c.memLatency)
        cfg.mem.memLatency = c.memLatency;
    if (c.l2Latency)
        cfg.mem.l2Latency = c.l2Latency;
    if (c.l2SizeBytes)
        cfg.mem.l2.sizeBytes = c.l2SizeBytes;
    cfg.name = c.name;
    return cfg;
}

/** What one job returned, from its strict-parsed campaign report. */
struct JobOutcome
{
    bool ok = false;
    std::uint64_t id = 0;
    double secs = 0;
    std::vector<std::uint64_t> cpiBits;
    double wall = 0;
    double replays = 0;
    double pointsDecoded = 0;
    double bytesDecoded = 0;
    double failedCells = 0;
    double memoizedCells = 0;
};

/**
 * Submit @p spec and wait for its report, polling status every
 * @p pollMs: 1 ms for memoized jobs, whose latency is a few ms; 5 ms
 * for cold jobs, so the polling does not compete with the campaign's
 * threads for the cores.
 */
JobOutcome
runJob(lp::SvcClient &client, const lp::JobSpec &spec, Tracer &tr,
       const char *root, std::uint64_t pollMs)
{
    JobOutcome o;
    Scope job(tr, root);
    const auto t0 = Clock::now();
    lp::SvcReply sub;
    {
        Scope s(tr, "svc.submit");
        sub = client.submit(spec);
    }
    if (!sub.ok)
        return o;
    o.id = sub.id;
    lp::SvcReply st;
    {
        Scope s(tr, "svc.wait");
        st = client.waitForJob(sub.id, 150000, pollMs);
    }
    lp::SvcReply r;
    {
        Scope s(tr, "svc.result");
        r = client.result(sub.id);
    }
    o.secs = secondsSince(t0);
    if (!st.ok || st.state != "done" || !r.ok) {
        std::fprintf(stderr, "lpbench: job %llu ended %s: %s\n",
                     static_cast<unsigned long long>(sub.id),
                     st.state.c_str(), st.detail.c_str());
        return o;
    }
    try {
        const Json j = Json::parse(r.resultJson);
        for (const Json &c : j.at("cells").array())
            o.cpiBits.push_back(
                std::stoull(c.at("cpi_bits").string(), nullptr, 16));
        const Json &t = j.at("totals");
        o.wall = t.at("wall_seconds").number();
        o.replays = t.at("replays_executed").number();
        o.pointsDecoded = t.at("points_decoded").number();
        o.bytesDecoded = t.at("bytes_decoded").number();
        o.failedCells = t.at("failed_cells").number();
        o.memoizedCells = t.at("memoized_cells").number();
        o.ok = o.cpiBits.size() == kCells;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lpbench: job report: %s\n", e.what());
    }
    return o;
}

} // namespace

void
runGrid(const Args &a, Tracer &tr, Result &res)
{
    WorkDir work;
    std::vector<double> setups;
    std::vector<Bench> benches;
    lp::LibrarySet set;
    std::unique_ptr<Service> service;
    std::unique_ptr<lp::SvcClient> client;
    std::string jobsDir;
    for (int k = 0; k < (a.trace ? 1 : kSetups); ++k) {
        client.reset();
        service.reset();
        set = lp::LibrarySet();
        const std::string dir = work.path("set" + std::to_string(k));
        jobsDir = work.path("jobs" + std::to_string(k));
        const std::string socket = work.path("svc" + std::to_string(k));

        const auto t0 = Clock::now();
        benches.clear();
        {
            Scope s(tr, "workload.generate");
            for (const char *name : kProfiles)
                benches.push_back(makeBench(name, 1.0, kPoints));
        }
        buildSetConcurrently(benches, tableOneBuilderConfig(false), dir);
        set = openSet(dir, tr);
        lp::ServiceConfig sc;
        sc.jobsDir = jobsDir;
        sc.setDir = dir;
        sc.workerSlots = 2;
        service = std::make_unique<Service>(sc, socket);
        client = std::make_unique<lp::SvcClient>(socket, 10000);
        setups.push_back(secondsSince(t0));
    }

    lp::JobSpec spec = gridSpec(a.seed);
    auto coldSeed = [&](int c) { return seedMix(a.seed, 200 + c) | 1; };
    std::vector<std::uint64_t> ref;
    auto checkCold = [&](int c, const JobOutcome &o) {
        res.check(o.ok && o.failedCells == 0 && o.replays > 0,
                  "grid: cold job completes with no failed cell");
        if (c < kDigestJobs)
            for (const std::uint64_t b : o.cpiBits)
                res.mix(b);
    };
    // The closed loop: resubmit the first cold job, one at a time.
    std::vector<double> memo;
    double memoized = 0;
    auto memoLoop = [&](const std::function<void()> &between) {
        spec.shuffleSeed = coldSeed(0);
        for (std::size_t n = 0; n < kMemoJobs; ++n) {
            if (n > 0)
                between();
            const JobOutcome o =
                runJob(*client, spec, tr, "svc.memo_job", 1);
            memo.push_back(o.secs * 1e3);
            memoized += o.memoizedCells;
            res.check(o.ok && o.cpiBits == ref && o.replays == 0 &&
                          o.memoizedCells == kCells,
                      "grid: resubmission resolves from the store");
        }
        const Tail tail = tailPercentile(memo);
        std::fprintf(stderr,
                     "lpbench: grid: %zu memoized resubmissions, p50 "
                     "%.3f ms, p%g %.3f ms (%zu beyond)\n",
                     memo.size(), percentile(memo, 50), tail.pct, tail.value,
                     tail.beyond);
    };

    double bytes = 0;
    double points = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
        bytes += static_cast<double>(set.fileBytes(i));
        points += static_cast<double>(set.points(i));
    }

    if (!a.trace) {
        std::vector<double> jobs;
        std::vector<double> rates;
        // Cold jobs for the measured seconds, each with its own shuffle
        // seed so none is memoized; then the closed memoized loop.
        const auto start = Clock::now();
        for (int c = 0; c < kDigestJobs || secondsSince(start) < a.seconds;
             ++c) {
            spec.shuffleSeed = coldSeed(c);
            const JobOutcome o = runJob(*client, spec, tr, "svc.job", 5);
            checkCold(c, o);
            if (c == 0)
                ref = o.cpiBits;
            jobs.push_back(o.secs);
            rates.push_back(o.wall > 0 ? o.replays / o.wall : 0.0);
        }
        memoLoop([]() {});
        logJobs("grid", jobs);
        res.metrics["setup_s"] = median(setups);
        res.metrics["job_s"] = median(jobs);
        res.metrics["work_per_s"] = median(rates);
        res.metrics["bytes_per_point"] = bytes / points;
        return;
    }

    spec.shuffleSeed = coldSeed(0);
    const JobOutcome cold = runJob(*client, spec, tr, "svc.job", 5);
    checkCold(0, cold);
    ref = cold.cpiBits;

    // Between resubmissions, time one status round trip (of the
    // finished cold job, so the daemon answers from memory).
    std::vector<double> statusRtt;
    memoLoop([&]() {
        const auto t0 = Clock::now();
        Scope s(tr, "svc.status");
        client->status(cold.id);
        statusRtt.push_back(secondsSince(t0) * 1e6);
    });

    // The store's read and write paths, on a copy of the daemon's file.
    const std::string copy = work.path("results-copy.lpres");
    std::filesystem::copy_file(jobsDir + "/results.lpres", copy);
    lp::ResultStore store;
    {
        Scope s(tr, "store.load");
        store.load(copy);
    }
    const std::vector<lp::CellRecord> cells = store.cells();
    std::size_t found = 0;
    {
        Scope s(tr, "store.find");
        lp::CellRecord out;
        for (const lp::CellRecord &c : cells)
            found += store.find(c.key, &out) ? 1 : 0;
    }
    res.check(!cells.empty() && found == cells.size(),
              "grid: every stored key is found");
    {
        Scope s(tr, "store.save");
        store.save(work.path("results-saved.lpres"));
    }

    std::vector<lp::CoreConfig> cfgs;
    for (const lp::JobConfigSpec &c : spec.configs)
        cfgs.push_back(materialize(c));
    DecompAccum acc;
    const double overhead = tracingOverhead(tr, [&](Tracer &t) {
        acc = DecompAccum{};
        for (const Bench &b : benches)
            decomposeReplay(t, b.prog, set.shard(set.find(b.name)), cfgs,
                            coldSeed(0), acc);
    });

    auto total = totalsByName(tr.spans());
    lp::ReplayEngineOptions eo;
    eo.threads = spec.threads;
    eo.decodeThreads = spec.decodeThreads;
    replayLayerMetrics(total, acc, cold.wall,
                       spec.threads + lp::replayDecodeThreads(eo), res);
    auto &m = res.metrics;
    m["core.replay.bytes_decoded"] = cold.bytesDecoded;
    m["core.campaign.run_s"] = cold.wall;
    m["core.campaign.replays_per_decode"] =
        cold.pointsDecoded > 0 ? cold.replays / cold.pointsDecoded : 0.0;
    m["svc.job_overhead_s"] = cold.secs - cold.wall;
    m["svc.submit_ms"] =
        median(spanDurations(tr, "svc.memo_job", "svc.submit")) * 1e3;
    m["svc.wait_ms"] =
        median(spanDurations(tr, "svc.memo_job", "svc.wait")) * 1e3;
    m["svc.status_rtt_us"] = median(statusRtt);
    m["svc.memo_job_ms_p50"] = percentile(memo, 50);
    m["svc.memo_job_ms_p90"] = percentile(memo, 90);
    m["svc.memo_samples"] = static_cast<double>(memo.size());
    m["store.load_ms"] = total["store.load"] * 1e3;
    m["store.find_us"] = cells.empty() ? 0.0
                                       : total["store.find"] * 1e6 /
                                             static_cast<double>(cells.size());
    m["store.save_ms"] = total["store.save"] * 1e3;
    m["store.hit_frac"] =
        memoized / static_cast<double>(memo.size() * kCells);
    m["trace.overhead_s"] = overhead;
}

} // namespace perfbench
