/**
 * @file
 * The benchmark's own tests: the percentile rule, the self-time
 * arithmetic of the span tracer, and strict parsing of the JSON the
 * benchmark emits and reads. Exits nonzero on the first failure.
 *
 * Run: cmake --build .bench_build/perfbench --target perfbench_selftest
 *      && .bench_build/perfbench/perfbench_selftest
 * (python3 perfbench/run.py --selftest does both).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "json.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(x) expect((x), #x, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    EXPECT(median({}) == 0.0);
    EXPECT(median({3, 1, 2}) == 2.0);
    EXPECT(median({4, 1, 3, 2}) == 2.5);

    // Nearest rank: p90 of 1..100 is the 90th value, 10 beyond it.
    EXPECT(percentile(oneTo(100), 90) == 90.0);
    EXPECT(percentile(oneTo(100), 50) == 50.0);
    EXPECT(percentile(oneTo(10), 99) == 10.0);
    EXPECT(percentile(oneTo(7), 0) == 1.0);
    EXPECT(samplesBeyond(100, 90) == 10);
    EXPECT(samplesBeyond(101, 90) == 10); // rank ceil(90.9) = 91
    EXPECT(samplesBeyond(0, 50) == 0);

    // The tail rule picks the highest percentile with >= 10 beyond.
    Tail t = tailPercentile(oneTo(100));
    EXPECT(t.pct == 90.0 && t.value == 90.0 && t.beyond == 10 &&
           t.samples == 100);
    t = tailPercentile(oneTo(99)); // p90 rank 90 leaves 9: only p50
    EXPECT(t.pct == 50.0 && t.value == 50.0 && t.beyond == 49);
    t = tailPercentile(oneTo(1000));
    EXPECT(t.pct == 99.0 && t.value == 990.0 && t.beyond == 10);
    t = tailPercentile(oneTo(999));
    EXPECT(t.pct == 90.0 && t.beyond == 99);
    t = tailPercentile(oneTo(10000));
    EXPECT(t.pct == 99.9 && t.value == 9990.0 && t.beyond == 10);
    t = tailPercentile(oneTo(19)); // p50 rank 10 leaves 9
    EXPECT(t.pct == 0.0 && t.samples == 19);
    t = tailPercentile(oneTo(20));
    EXPECT(t.pct == 50.0 && t.value == 10.0 && t.beyond == 10);
}

Span
span(const char *name, double s, double e, std::int64_t parent)
{
    Span x;
    x.name = name;
    x.start = s;
    x.end = e;
    x.parent = parent;
    return x;
}

void
testSelfTime()
{
    // root [0,10] with children [1,3] and [2,5] (overlapping: union
    // [1,5] = 4) and [9,12] (clipped to [9,10] = 1): self = 10-5.
    // Child [1,3] has its own child [1.5,2]: self 2-0.5.
    std::vector<Span> s = {
        span("root", 0, 10, -1), span("a", 1, 3, 0), span("b", 2, 5, 0),
        span("c", 9, 12, 0),     span("d", 1.5, 2, 1),
    };
    const std::vector<double> self = selfTimes(s);
    EXPECT(near(self[0], 5.0));
    EXPECT(near(self[1], 1.5));
    EXPECT(near(self[2], 3.0));
    EXPECT(near(self[3], 3.0));
    EXPECT(near(self[4], 0.5));

    // A child entirely inside an earlier sibling adds nothing.
    s = {span("p", 0, 4, -1), span("x", 0, 3, 0), span("y", 1, 2, 0)};
    EXPECT(near(selfTimes(s)[0], 1.0));

    // Adjacent children tile; totals sum spans by name.
    s = {span("p", 0, 4, -1), span("x", 1, 2, 0), span("x", 2, 3, 0)};
    EXPECT(near(selfTimes(s)[0], 2.0));
    const auto totals = totalsByName(s);
    EXPECT(near(totals.at("p"), 4.0) && near(totals.at("x"), 2.0));

    // The recorder nests spans by the innermost open one.
    Tracer tr(true);
    const auto outer = tr.begin("outer");
    const auto inner = tr.begin("inner");
    tr.end(inner);
    tr.end(outer);
    EXPECT(tr.spans().size() == 2 && tr.spans()[1].parent == 0 &&
           tr.spans()[0].parent == -1);
    EXPECT(selfTimes(tr.spans())[0] >= 0.0);
    Tracer off(false);
    EXPECT(off.begin("x") == -1 && off.spans().empty());
}

bool
rejects(const std::string &text)
{
    try {
        Json::parse(text);
        return false;
    } catch (const JsonError &) {
        return true;
    }
}

void
testStrictJson()
{
    const std::string line =
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
        "\"metrics\": {\"job_s\": {\"value\": 1.25e-3, \"unit\": \"s\"}}}";
    const Json j = Json::parse(line);
    EXPECT(j.at("correct").boolean());
    EXPECT(j.at("attempted").number() == 12);
    EXPECT(j.at("metrics").at("job_s").at("value").number() == 1.25e-3);
    EXPECT(j.at("metrics").at("job_s").at("unit").string() == "s");

    EXPECT(!rejects("[1, -0.5, 2E+3, \"a\\u00e9\\n\", null, false, {}]"));
    EXPECT(Json::parse("\"\\ud83d\\ude00\"").string() == "\xf0\x9f\x98\x80");

    EXPECT(rejects(""));
    EXPECT(rejects("NaN"));
    EXPECT(rejects("{\"v\": Infinity}"));
    EXPECT(rejects("{\"v\": -Infinity}"));
    EXPECT(rejects("01"));
    EXPECT(rejects("1."));
    EXPECT(rejects(".5"));
    EXPECT(rejects("+1"));
    EXPECT(rejects("1e"));
    EXPECT(rejects("1e999")); // overflows to infinity
    EXPECT(rejects("[1,]"));
    EXPECT(rejects("{\"a\": 1,}"));
    EXPECT(rejects("{\"a\": 1, \"a\": 2}")); // duplicate key
    EXPECT(rejects("{'a': 1}"));
    EXPECT(rejects("\"tab\there\""));
    EXPECT(rejects("\"\\x\""));
    EXPECT(rejects("\"\\ud83d\""));
    EXPECT(rejects("{} {}"));
    EXPECT(rejects("[1] x"));
    EXPECT(rejects("tru"));
    EXPECT(rejects("{\"a\" 1}"));

    // Emitted numbers keep every digit and read back exactly.
    for (const double v : {0.1, 1.0 / 3.0, 123456.789e-10, 5e-324, 1e300,
                           -2.5, 0.0}) {
        const std::string s = jsonNumber(v);
        EXPECT(Json::parse(s).number() == v);
    }
    EXPECT(jsonNumber(3.0) == "3");
    bool threw = false;
    try {
        jsonNumber(std::nan(""));
    } catch (const JsonError &) {
        threw = true;
    }
    EXPECT(threw);
    EXPECT(Json::parse(jsonString("q\"\\\n\x01")).string() ==
           "q\"\\\n\x01");
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testStrictJson();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
