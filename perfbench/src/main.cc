/**
 * @file
 * lpbench — the repository benchmark. One run sets up one named
 * workload, measures it for a given number of seconds, checks its
 * outputs, and prints as its last stdout line one JSON object:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
 *
 * Untraced (--trace 0) the metrics are the end-to-end ones; traced
 * (--trace 1) they are the per-layer ones, taken from spans the
 * benchmark records around each call it makes into the library, and
 * the spans are written to .bench_out/trace-<workload>-<seed>.json.
 * The line before the result carries the digest of every estimate the
 * run simulated, so two builds can be compared bit for bit.
 *
 * Usage: lpbench --workload build|replay|grid --seed N --seconds S
 *                --trace 0|1
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"
#include "json.hh"

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json (run.py checks the names).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"job_s", "s"},
    {"work_per_s", "1/s"},   {"bytes_per_point", "B"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"func.warm_s", "s"},
    {"core.builder.build_s", "s"},
    {"core.builder.capture_s", "s"},
    {"core.library.serialize_s", "s"},
    {"codec.compress_s", "s"},
    {"codec.compress_mb_per_s", "MB/s"},
    {"io.shard_write_s", "s"},
    {"core.builder.residual_s", "s"},
    {"codec.delta_record_frac", "ratio"},
    {"codec.raw_bytes_per_point", "B"},
    {"io.shard_open_s", "s"},
    {"core.library.decode_s", "s"},
    {"core.library.decode_stored_s", "s"},
    {"core.library.chain_walk_s", "s"},
    {"core.library.chain_bytes_per_point", "B"},
    {"core.library.deserialize_s", "s"},
    {"codec.zip_decode_s", "s"},
    {"mem.image_apply_s", "s"},
    {"cache.reconstruct_s", "s"},
    {"bpred.restore_s", "s"},
    {"uarch.measure_s", "s"},
    {"core.replay.decode_to_simulate", "ratio"},
    {"core.replay.wait_s", "s"},
    {"core.replay.bytes_decoded", "B"},
    {"core.campaign.run_s", "s"},
    {"core.campaign.replays_per_decode", "ratio"},
    {"svc.job_overhead_s", "s"},
    {"svc.submit_ms", "ms"},
    {"svc.wait_ms", "ms"},
    {"svc.status_rtt_us", "us"},
    {"svc.memo_job_ms_p50", "ms"},
    {"svc.memo_job_ms_p90", "ms"},
    {"svc.memo_samples", "count"},
    {"store.load_ms", "ms"},
    {"store.find_us", "us"},
    {"store.save_ms", "ms"},
    {"store.hit_frac", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.residual_s", "s"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "lpbench: %s\nusage: lpbench --workload "
                 "build|replay|grid --seed N --seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    if (!*text || *text == '-')
        usage(std::string("bad value for ") + flag);
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end)
        usage(std::string("bad value for ") + flag);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool seen[4] = {};
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage(std::string("missing value for ") + argv[i]);
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload") {
            a.workload = v;
            seen[0] = true;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned("--seed", v);
            seen[1] = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned("--seconds", v);
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            a.seconds = static_cast<double>(s);
            seen[2] = true;
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUnsigned("--trace", v);
            if (t > 1)
                usage("--trace must be 0 or 1");
            a.trace = t == 1;
            seen[3] = true;
        } else {
            usage("unknown argument " + flag);
        }
    }
    for (const bool s : seen)
        if (!s)
            usage("every argument is required");
    return a;
}

/** Self time of the decomposition passes that no layer span covers. */
double
passResidual(const Tracer &tr)
{
    const std::vector<double> self = selfTimes(tr.spans());
    double r = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i)
        if (std::strncmp(tr.spans()[i].name, "pass.", 5) == 0)
            r += self[i];
    return r;
}

std::string
resultLine(const Result &res, bool trace)
{
    std::string m;
    const MetricDef *defs = trace ? kPerLayer : kEndToEnd;
    const std::size_t n = trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = res.metrics.find(defs[i].name);
        if (it == res.metrics.end())
            throw std::logic_error(std::string("metric not measured: ") +
                                   defs[i].name);
        m += std::string(i ? ", " : "") + jsonString(defs[i].name) +
             ": {\"value\": " + jsonNumber(it->second) +
             ", \"unit\": " + jsonString(defs[i].unit) + "}";
    }
    return "{\"correct\": " +
           std::string(res.failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(res.attempted) +
           ", \"failed\": " + std::to_string(res.failed) +
           ", \"metrics\": {" + m + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    Workload run = nullptr;
    if (a.workload == "build")
        run = runBuild;
    else if (a.workload == "replay")
        run = runReplay;
    else if (a.workload == "grid")
        run = runGrid;
    else
        usage("unknown workload '" + a.workload + "'");

    try {
        Tracer tr(a.trace);
        Result res;
        if (a.trace)
            for (const MetricDef &d : kPerLayer)
                res.metrics[d.name] = 0.0;
        run(a, tr, res);
        if (a.trace) {
            auto totals = totalsByName(tr.spans());
            for (const char *layer : {"workload.generate", "io.shard_open"})
                res.metrics[std::string(layer) + "_s"] = totals[layer];
            res.metrics["trace.residual_s"] = passResidual(tr);
            std::filesystem::create_directories(".bench_out");
            tr.write(".bench_out/trace-" + a.workload + "-" +
                     std::to_string(a.seed) + ".json");
        } else {
            res.metrics["peak_rss_mb"] = peakRssMb();
        }
        const std::string line = resultLine(res, a.trace);
        Json::parse(line); // never print a line a strict reader rejects
        std::printf("estimate_digest %s seed=%llu trace=%d %016llx\n",
                    a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
                    static_cast<unsigned long long>(res.digest));
        std::printf("%s\n", line.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lpbench: %s\n", e.what());
        return 1;
    }
}
