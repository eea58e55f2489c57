/**
 * @file
 * In-memory span tracing for the benchmark's traced runs. A span is
 * (name, start, end, parent): the benchmark opens one around each call
 * it makes into a layer of the library, nested spans record which call
 * caused which, and everything stays in memory until the run writes it
 * out as a Chrome trace-event file. A disabled tracer records nothing
 * and reads no clock, so the same code path runs untraced to measure
 * the tracing overhead.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    const char *name = ""; //!< a string literal: the layer call
    double start = 0.0;    //!< seconds since the tracer was created
    double end = 0.0;
    std::int64_t parent = -1; //!< index of the enclosing span, -1: root
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; -1 when disabled. */
    std::int64_t begin(const char *name);

    /** Close span @p id (must be the innermost open span). */
    void end(std::int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a Chrome trace-event JSON file. */
    void write(const std::string &path) const;

  private:
    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** A span open for the lifetime of the scope. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::int64_t id_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover (overlapping children count once, and
 * a child reaching outside its parent is clipped to it).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Summed durations of @p spans by name, seconds. */
std::map<std::string, double> totalsByName(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
