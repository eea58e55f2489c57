/**
 * @file
 * Workload `build` — the write path. Creates delta-encoded libraries
 * for gcc-2 and swim (one warming shard each, Table 1 maxima) with
 * LivePointBuilder::buildInto into a fresh LibrarySet, in a
 * seed-shuffled order, over and over for the measured seconds; nothing
 * is replayed. Set-up generates the programs and makes one warm-up
 * build. Every set is reopened and checked: point counts, content
 * hashes against the index and against the warm-up build, and a decode
 * of every record (which verifies each delta record's raw checksum).
 *
 * The traced run splits creation into its layers by re-running it
 * from the benchmark's side: the same functional warming, capture,
 * serialisation and compression calls buildInto makes, each in its
 * own span, and the same addShard write. The re-run must produce a
 * library with the same content hash as buildInto's.
 */

#include <filesystem>
#include <memory>

#include "codec/zip.hh"
#include "common.hh"
#include "func/functional.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

constexpr double kScale = 0.1;        //!< program length vs the suite
constexpr std::uint64_t kPoints = 300; //!< live-points per library
constexpr int kSetups = 3;

/** Re-run one creation pass layer by layer (see file comment). */
struct StageCounts
{
    double points = 0;
    double deltaRecords = 0;
    double rawBytes = 0;
    double compressInBytes = 0; //!< raw bytes fed to the compressors
};

std::uint64_t
stagedBuild(Tracer &tr, const Bench &b, const lp::LivePointBuilderConfig &cfg,
            lp::LibrarySetWriter &writer, StageCounts &n)
{
    Scope root(tr, "pass.build");
    lp::MemHierarchyConfig mc;
    mc.l1i = cfg.maxL1i;
    mc.l1d = cfg.maxL1d;
    mc.l2 = cfg.maxL2;
    mc.itlb = cfg.maxItlb;
    mc.dtlb = cfg.maxDtlb;
    lp::FunctionalSimulator sim(b.prog);
    lp::MemHierarchy hier(mc);
    std::vector<std::unique_ptr<lp::BranchPredictor>> preds;
    for (const lp::BpredConfig &bc : cfg.bpredConfigs)
        preds.push_back(std::make_unique<lp::BranchPredictor>(bc));
    sim.setHierarchy(&hier);
    for (auto &bp : preds)
        sim.addPredictor(bp.get());

    lp::LivePointLibrary lib(b.prog.name, b.design);
    const lp::Blob noDict;
    const std::uint64_t chain = std::max(cfg.maxDeltaChain, 1u);
    lp::Blob prevRaw;
    for (std::uint64_t i = 0; i < b.design.count; ++i) {
        const lp::InstCount start = b.design.windowStart(i);
        {
            Scope s(tr, "func.warm");
            sim.run(start - sim.regs().instIndex);
        }
        lp::LivePoint point;
        point.index = i;
        point.windowStart = start;
        point.warmLen = b.design.warmLen;
        point.measureLen = b.design.measureLen;
        point.regs = sim.regs();
        {
            Scope s(tr, "core.builder.capture");
            point.l1i = lp::CacheSetRecord(hier.l1i());
            point.l1d = lp::CacheSetRecord(hier.l1d());
            point.l2 = lp::CacheSetRecord(hier.l2());
            point.itlb = lp::CacheSetRecord(hier.itlb());
            point.dtlb = lp::CacheSetRecord(hier.dtlb());
            for (std::size_t p = 0; p < preds.size(); ++p)
                point.bpredImages.emplace(cfg.bpredConfigs[p].key(),
                                          preds[p]->serialize());
        }
        lp::MemoryImage image(cfg.imageBlockBytes);
        sim.setCaptureImage(&image);
        {
            Scope s(tr, "func.warm");
            sim.run(b.design.windowLen());
        }
        sim.setCaptureImage(nullptr);
        point.memImage = std::move(image);

        lp::Blob raw;
        {
            Scope s(tr, "core.library.serialize");
            raw = point.serialize();
        }
        lp::Blob rec;
        {
            Scope s(tr, "codec.compress");
            rec = lp::zipCompress(raw, lp::ByteSpan(noDict));
        }
        n.compressInBytes += static_cast<double>(raw.size());
        std::uint8_t flags = 0;
        std::uint64_t rawHash = 0;
        if (cfg.deltaEncode && i > 0 && i % chain != 0) {
            lp::Blob delta;
            {
                Scope s(tr, "codec.compress");
                delta = lp::zipCompressDelta(raw, lp::ByteSpan(prevRaw));
            }
            n.compressInBytes += static_cast<double>(raw.size());
            if (delta.size() < rec.size()) {
                rec = std::move(delta);
                flags = lp::LivePointLibrary::kFlagDelta;
                rawHash = lp::livePointRawHash(raw.data(), raw.size());
                n.deltaRecords += 1;
            }
        }
        lib.addEncoded(rec, raw.size(), i, flags, rawHash);
        n.points += 1;
        n.rawBytes += static_cast<double>(raw.size());
        prevRaw = std::move(raw);
    }
    {
        Scope s(tr, "io.shard_write");
        writer.addShard(b.name, lib);
    }
    return lib.contentHash();
}

/**
 * Reopen the set at @p dir and check every shard: count, content hash
 * (index vs container vs @p ref, filled on first use), and a decode of
 * every record. Adds the shards' file bytes and points to @p bytes and
 * @p points.
 */
void
verifySet(const std::string &dir, const std::vector<Bench> &benches,
          Tracer &tr, std::vector<std::uint64_t> &ref, Result &res,
          double &bytes, double &points)
{
    const lp::LibrarySet set = openSet(dir, tr);
    for (std::size_t k = 0; k < benches.size(); ++k) {
        const std::string &name = benches[k].name;
        bool ok = false;
        try {
            const std::size_t i = set.find(name);
            if (i != lp::LibrarySet::npos) {
                const lp::LivePointLibrary &lib = set.shard(i);
                const std::uint64_t h = lib.contentHash();
                if (!ref[k])
                    ref[k] = h;
                ok = set.points(i) == kPoints && lib.size() == kPoints &&
                     h == set.contentHash(i) && h == ref[k];
                lp::LivePointDecodeScratch scratch;
                lp::LivePoint pt;
                for (std::size_t p = 0; p < lib.size(); ++p)
                    lib.decodeInto(p, scratch, pt);
                bytes += static_cast<double>(set.fileBytes(i));
                points += static_cast<double>(lib.size());
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lpbench: %s: %s\n", name.c_str(),
                         e.what());
            ok = false;
        }
        res.check(ok, "build: shard " + name + " reopens intact");
    }
}

} // namespace

void
runBuild(const Args &a, Tracer &tr, Result &res)
{
    WorkDir work;
    const lp::LivePointBuilderConfig cfg = tableOneBuilderConfig(true);
    std::vector<Bench> benches;
    std::vector<std::size_t> order;
    const std::string dir = work.path("set");
    std::vector<std::uint64_t> ref;

    // One job: create every library into a fresh set.
    auto job = [&]() {
        std::filesystem::remove_all(dir);
        lp::LibrarySetWriter writer(dir);
        const auto t0 = Clock::now();
        for (const std::size_t k : order) {
            Scope s(tr, "core.builder.build");
            lp::LivePointBuilder builder(cfg);
            builder.buildInto(writer, benches[k].name, benches[k].prog,
                              benches[k].design);
        }
        return secondsSince(t0);
    };

    // Set-up: generate the programs, then one warm-up job whose
    // libraries are the reference every measured job must reproduce.
    std::vector<double> setups;
    double bytes = 0;
    double points = 0;
    for (int k = 0; k < (a.trace ? 1 : kSetups); ++k) {
        const auto t0 = Clock::now();
        benches.clear();
        {
            Scope s(tr, "workload.generate");
            for (const char *name : kProfiles)
                benches.push_back(makeBench(name, kScale, kPoints));
        }
        order = seededOrder(benches.size(), a.seed, 1);
        job();
        setups.push_back(secondsSince(t0));
        ref.assign(benches.size(), 0);
        verifySet(dir, benches, tr, ref, res, bytes, points);
    }

    if (!a.trace) {
        std::vector<double> jobs;
        std::vector<double> rates;
        const auto start = Clock::now();
        while (jobs.size() < 2 || secondsSince(start) < a.seconds) {
            const double secs = job();
            jobs.push_back(secs);
            rates.push_back(static_cast<double>(kPoints * benches.size()) /
                            secs);
            bytes = points = 0;
            verifySet(dir, benches, tr, ref, res, bytes, points);
        }
        res.metrics["setup_s"] = median(setups);
        res.metrics["job_s"] = median(jobs);
        res.metrics["work_per_s"] = median(rates);
        res.metrics["bytes_per_point"] = bytes / points;
        logJobs("build", jobs);
    } else {
        const double buildSecs = job();
        verifySet(dir, benches, tr, ref, res, bytes, points);

        StageCounts n;
        int pass = 0;
        const double overhead = tracingOverhead(tr, [&](Tracer &t) {
            n = StageCounts{};
            lp::LibrarySetWriter writer(
                work.path("staged" + std::to_string(pass++)));
            for (const std::size_t k : order) {
                const std::uint64_t h =
                    stagedBuild(t, benches[k], cfg, writer, n);
                res.check(h == ref[k], "build: layer-by-layer re-run of " +
                                           benches[k].name +
                                           " matches buildInto");
            }
        });
        auto total = totalsByName(tr.spans());
        auto &m = res.metrics;
        m["core.builder.build_s"] = buildSecs;
        m["func.warm_s"] = total["func.warm"];
        m["core.library.serialize_s"] = total["core.library.serialize"];
        m["codec.compress_s"] = total["codec.compress"];
        m["codec.compress_mb_per_s"] =
            n.compressInBytes / 1e6 / total["codec.compress"];
        m["io.shard_write_s"] = total["io.shard_write"];
        m["core.builder.capture_s"] = total["core.builder.capture"];
        // Negative when the encoder thread's compression overlaps the
        // warming thread by more than the unattributed work costs.
        m["core.builder.residual_s"] =
            buildSecs -
            (m["func.warm_s"] + m["core.builder.capture_s"] +
             m["core.library.serialize_s"] + m["codec.compress_s"] +
             m["io.shard_write_s"]);
        m["codec.delta_record_frac"] = n.deltaRecords / n.points;
        m["codec.raw_bytes_per_point"] = n.rawBytes / n.points;
        m["trace.overhead_s"] = overhead;
    }
    for (const std::uint64_t h : ref)
        res.mix(h);
}

} // namespace perfbench
