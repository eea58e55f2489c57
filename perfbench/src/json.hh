/**
 * @file
 * Strict JSON (RFC 8259) for the benchmark: a parser that rejects
 * anything the RFC does not allow — NaN/Infinity, leading zeros,
 * trailing commas, unescaped control characters, trailing garbage —
 * plus duplicate object keys, and a number formatter that keeps every
 * significant digit. The benchmark parses the campaign reports the
 * service returns with it, and checks its own result line with it
 * before printing.
 */

#ifndef PERFBENCH_JSON_HH
#define PERFBENCH_JSON_HH

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench
{

struct JsonError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

class Json
{
  public:
    enum class Kind
    {
        null,
        boolean,
        number,
        string,
        array,
        object
    };

    Kind kind = Kind::null;
    bool b = false;
    double num = 0.0;
    std::string str; //!< string value, or the number's source text
    std::vector<Json> items;
    std::map<std::string, Json> members;

    /** Parse exactly one JSON value spanning all of @p text. */
    static Json parse(const std::string &text);

    /** Member @p key of an object; throws JsonError when absent. */
    const Json &at(const std::string &key) const;

    double number() const;
    const std::string &string() const;
    bool boolean() const;
    const std::vector<Json> &array() const;
};

/** Shortest round-tripping decimal form of a finite @p v. */
std::string jsonNumber(double v);

/** @p s as a quoted, escaped JSON string. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_JSON_HH
