#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "core/replay.hh"
#include "workload/profile.hh"

namespace perfbench
{

namespace fs = std::filesystem;

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "lpbench: check failed: %s\n", what.c_str());
    }
}

void
Result::mix(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
    }
}

void
logJobs(const char *workload, const std::vector<double> &jobs)
{
    std::fprintf(stderr, "lpbench: %s: %zu jobs (s):", workload, jobs.size());
    for (const double j : jobs)
        std::fprintf(stderr, " %.3f", j);
    std::fprintf(stderr, "\n");
}

std::uint64_t
seedMix(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 of the pair: decorrelated streams from one seed.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream +
                      0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed, std::uint64_t stream)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::uint64_t r = seedMix(seed, stream * 1000003 + i);
        std::swap(order[i - 1], order[r % i]);
    }
    return order;
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

WorkDir::WorkDir()
    : root_(".bench_work/" + std::to_string(::getpid()))
{
    fs::remove_all(root_);
    fs::create_directories(root_);
}

WorkDir::~WorkDir()
{
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::remove(".bench_work", ec); // only succeeds when empty
}

std::string
WorkDir::path(const std::string &name) const
{
    return root_ + "/" + name;
}

Bench
makeBench(const std::string &name, double scale, std::uint64_t points)
{
    lp::WorkloadProfile p = lp::findProfile(name);
    if (scale != 1.0) {
        p.targetInsts = static_cast<lp::InstCount>(
            static_cast<double>(p.targetInsts) * scale);
        // Keep the phase structure proportional to the length, as the
        // suite itself sizes it.
        p.phaseInsts = std::clamp<lp::InstCount>(
            p.targetInsts / (400 * static_cast<lp::InstCount>(p.phases)),
            5'000, 150'000);
    }
    Bench b;
    b.name = name;
    b.prog = lp::generateProgram(p);
    b.design = lp::SampleDesign::systematic(
        lp::measureProgramLength(b.prog), points, 1000,
        lp::CoreConfig::sixteenWay().detailedWarming);
    return b;
}

lp::LivePointBuilderConfig
tableOneBuilderConfig(bool delta)
{
    const lp::CoreConfig e8 = lp::CoreConfig::eightWay();
    const lp::CoreConfig s16 = lp::CoreConfig::sixteenWay();
    lp::LivePointBuilderConfig bc;
    bc.maxL1i = s16.mem.l1i;
    bc.maxL1d = s16.mem.l1d;
    bc.maxL2 = s16.mem.l2;
    bc.maxItlb = s16.mem.itlb;
    bc.maxDtlb = s16.mem.dtlb;
    bc.bpredConfigs = {e8.bpred, s16.bpred};
    bc.deltaEncode = delta;
    return bc;
}

void
buildSetConcurrently(const std::vector<Bench> &benches,
                     const lp::LivePointBuilderConfig &cfg,
                     const std::string &dir)
{
    const std::size_t n = benches.size();
    std::vector<lp::LivePointLibrary> libs(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < n; ++k)
        threads.emplace_back([&, k]() {
            try {
                lp::LivePointBuilder b(cfg);
                libs[k] = b.build(benches[k].prog, benches[k].design);
            } catch (...) {
                errors[k] = std::current_exception();
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    fs::remove_all(dir);
    lp::LibrarySetWriter writer(dir);
    for (std::size_t k = 0; k < n; ++k)
        writer.addShard(benches[k].name, libs[k]);
}

lp::LibrarySet
openSet(const std::string &dir, Tracer &tr)
{
    Scope s(tr, "io.shard_open");
    lp::LibrarySet set = lp::LibrarySet::open(dir);
    for (std::size_t i = 0; i < set.size(); ++i)
        set.shard(i);
    return set;
}

void
decomposeReplay(Tracer &tr, const lp::Program &prog,
                const lp::LivePointLibrary &lib,
                const std::vector<lp::CoreConfig> &cfgs,
                std::uint64_t shuffleSeed, DecompAccum &acc)
{
    Scope root(tr, "pass.replay");

    // One reconstruction target per distinct cache geometry and per
    // distinct predictor table — the work a ReplayContext does once
    // per point before its configurations copy the result.
    std::vector<std::unique_ptr<lp::MemHierarchy>> hiers;
    std::vector<const lp::MemHierarchyConfig *> hierCfg;
    std::vector<std::unique_ptr<lp::BranchPredictor>> preds;
    std::vector<std::string> predKeys;
    for (const lp::CoreConfig &c : cfgs) {
        const bool seen = std::any_of(
            hierCfg.begin(), hierCfg.end(),
            [&](const lp::MemHierarchyConfig *m) {
                return m->l1i == c.mem.l1i && m->l1d == c.mem.l1d &&
                       m->l2 == c.mem.l2 && m->itlb == c.mem.itlb &&
                       m->dtlb == c.mem.dtlb;
            });
        if (!seen) {
            hiers.push_back(std::make_unique<lp::MemHierarchy>(c.mem));
            hierCfg.push_back(&c.mem);
        }
        if (std::find(predKeys.begin(), predKeys.end(), c.bpred.key()) ==
            predKeys.end()) {
            preds.push_back(std::make_unique<lp::BranchPredictor>(c.bpred));
            predKeys.push_back(c.bpred.key());
        }
    }

    lp::ReplayContext ctx(prog, cfgs);
    lp::SparseMemory mem;
    lp::LivePointDecodeScratch scratch;
    lp::LivePoint pt;
    for (const std::size_t i : lp::replayOrder(lib.size(), shuffleSeed)) {
        {
            Scope s(tr, "core.library.decode");
            lib.decodeInto(i, scratch, pt);
        }
        acc.points += 1;
        acc.chainBytes += static_cast<double>(lib.chargeBytes(i));
        {
            Scope s(tr, "mem.image_apply");
            mem.reset();
            pt.memImage.applyTo(mem);
        }
        {
            Scope s(tr, "cache.reconstruct");
            for (auto &h : hiers) {
                pt.l1i.reconstruct(h->l1i());
                pt.l1d.reconstruct(h->l1d());
                pt.l2.reconstruct(h->l2());
                pt.itlb.reconstruct(h->itlb());
                pt.dtlb.reconstruct(h->dtlb());
            }
        }
        {
            Scope s(tr, "bpred.restore");
            for (std::size_t b = 0; b < preds.size(); ++b) {
                const lp::Blob *image = pt.findBpredImage(predKeys[b]);
                if (!image)
                    throw std::runtime_error("predictor not covered: " +
                                             predKeys[b]);
                preds[b]->deserialize(*image);
            }
        }
        {
            Scope s(tr, "uarch.simulate");
            if (cfgs.size() == 1) {
                ctx.simulate(pt);
            } else {
                ctx.loadPoint(pt);
                for (std::size_t c = 0; c < cfgs.size(); ++c)
                    ctx.replay(c);
            }
        }
    }

    lp::LivePointDecodeScratch stored;
    lp::LivePoint pt2;
    lp::LivePoint pt3;
    for (std::size_t i = 0; i < lib.size(); ++i) {
        {
            Scope s(tr, "core.library.decode_stored");
            lib.decodeInto(i, stored, pt2);
        }
        {
            Scope s(tr, "core.library.deserialize");
            lp::LivePoint::deserializeInto(stored.payload, pt3);
        }
    }
}

double
tracingOverhead(Tracer &tr, const std::function<void(Tracer &)> &pass)
{
    Tracer off(false);
    auto timed = [&](Tracer &t) {
        const auto t0 = Clock::now();
        pass(t);
        return secondsSince(t0);
    };
    pass(off);
    const double before = timed(off);
    const double traced = timed(tr);
    const double after = timed(off);
    std::fprintf(stderr,
                 "lpbench: decomposition pass untraced %.3f s, traced "
                 "%.3f s, untraced %.3f s\n",
                 before, traced, after);
    return traced - (before + after) / 2;
}

std::vector<double>
spanDurations(const Tracer &tr, const char *parent, const char *name)
{
    const std::vector<Span> &spans = tr.spans();
    std::vector<double> out;
    for (const Span &s : spans)
        if (std::strcmp(s.name, name) == 0 && s.parent >= 0 &&
            std::strcmp(spans[static_cast<std::size_t>(s.parent)].name,
                        parent) == 0)
            out.push_back(s.end - s.start);
    return out;
}

void
replayLayerMetrics(std::map<std::string, double> t, const DecompAccum &acc,
                   double engineWall, unsigned engineThreads, Result &res)
{
    const double decode = t["core.library.decode"];
    const double stored = t["core.library.decode_stored"];
    const double deser = t["core.library.deserialize"];
    const double apply = t["mem.image_apply"];
    const double recon = t["cache.reconstruct"];
    const double bpred = t["bpred.restore"];
    const double sim = t["uarch.simulate"];
    auto &m = res.metrics;
    m["core.library.decode_s"] = decode;
    m["core.library.decode_stored_s"] = stored;
    m["core.library.chain_walk_s"] = decode - stored;
    m["core.library.chain_bytes_per_point"] =
        acc.points ? acc.chainBytes / acc.points : 0.0;
    m["core.library.deserialize_s"] = deser;
    m["codec.zip_decode_s"] = stored - deser;
    m["mem.image_apply_s"] = apply;
    m["cache.reconstruct_s"] = recon;
    m["bpred.restore_s"] = bpred;
    m["uarch.measure_s"] = sim - (apply + recon + bpred);
    m["core.replay.decode_to_simulate"] = sim > 0 ? decode / sim : 0.0;
    m["core.replay.wait_s"] =
        engineWall * engineThreads - (decode + sim);
}

} // namespace perfbench
