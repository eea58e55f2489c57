#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "json.hh"

namespace perfbench
{

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::int64_t
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(s);
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_.back().start = now();
    return id;
}

void
Tracer::end(std::int64_t id)
{
    if (!enabled_)
        return;
    const double t = now();
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("trace: span closed out of order");
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = t;
}

void
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("trace: cannot write " + path);
    std::fputs("{\"traceEvents\": [", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %s, \"dur\": %s, \"args\": "
                     "{\"id\": %zu, \"parent\": %lld}}",
                     i ? "," : "", jsonString(s.name).c_str(),
                     jsonNumber(s.start * 1e6).c_str(),
                     jsonNumber((s.end - s.start) * 1e6).c_str(), i,
                     static_cast<long long>(s.parent));
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0)
        throw std::runtime_error("trace: cannot write " + path);
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start;
        const double hi = spans[i].end;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = lo; // right edge of the union so far
        for (const auto &[a0, b0] : iv) {
            const double a = std::max(a0, reach);
            const double b = std::min(b0, hi);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::map<std::string, double>
totalsByName(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        out[s.name] += s.end - s.start;
    return out;
}

} // namespace perfbench
