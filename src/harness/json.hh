/**
 * @file
 * Minimal JSON document model for the experiment harness: enough to
 * write sweep results deterministically and read them back for
 * baseline comparison. Not a general-purpose library: no comments,
 * and objects keep insertion order so serialisation is byte-stable.
 *
 * A Value holds only its active alternative (a tagged std::variant),
 * so a number or null costs no string or vector. The parser decodes
 * \u escapes of the Basic Multilingual Plane into UTF-8 (dump() writes
 * \u only for control characters), copies each escape-free run of a
 * string in one append, and fails cleanly once arrays and objects
 * nest deeper than kMaxDepth, so hostile input cannot exhaust the
 * stack. A caller that owns its document can move parts out of it:
 * on an expiring Value (`std::move(doc).at("k")`, `.asObject()`,
 * `.asArray()`) the accessors return by value, moving the payload
 * instead of referencing it, which is how the record loaders avoid
 * copying thousands of stat names.
 */

#ifndef CARVE_HARNESS_JSON_HH
#define CARVE_HARNESS_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace carve {
namespace json {

class Value;

/** Arrays and objects nested deeper than this fail to parse. A
 * results file nests 5 deep. */
inline constexpr unsigned kMaxDepth = 256;

/** Insertion-ordered key/value list (JSON objects). */
using Members = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/** One JSON value of any type. */
class Value
{
  public:
    /** Alternatives in the order of the variant below (checked by
     * static_assert): kind() is the active index. */
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Int,      ///< exact 64-bit integers (counters)
        Double,   ///< everything else numeric
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : v_(b) {}
    Value(std::int64_t v) : v_(v) {}
    Value(std::uint64_t v) : v_(static_cast<std::int64_t>(v)) {}
    Value(int v) : v_(std::int64_t{v}) {}
    Value(unsigned v) : v_(std::int64_t{v}) {}
    Value(double v) : v_(v) {}
    Value(const char *s) : v_(std::in_place_type<std::string>, s) {}
    Value(std::string s) : v_(std::move(s)) {}
    Value(Array a) : v_(std::move(a)) {}
    Value(Members m) : v_(std::move(m)) {}

    Kind kind() const { return static_cast<Kind>(v_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isNumber() const
    {
        return kind() == Kind::Int || kind() == Kind::Double;
    }
    bool isString() const { return kind() == Kind::String; }

    /** Typed accessors; wrong-kind access is a caller bug (asserted). */
    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;   ///< Int converts implicitly
    const std::string &asString() const;
    const Array &asArray() const &;
    const Members &asObject() const &;
    /** On an expiring Value: move the elements/members out. */
    Array asArray() &&;
    Members asObject() &&;

    /** Object member by key, or null Value when absent/non-object. */
    const Value &at(const std::string &key) const &;
    /** On an expiring Value: move that member out. */
    Value at(const std::string &key) &&;
    /** True when this is an object containing @p key. */
    bool has(const std::string &key) const;

    /** Append a member (object) — keeps insertion order. */
    void set(std::string key, Value v);
    /** Append an element (array). */
    void push(Value v);

    /**
     * Serialise. @p indent > 0 pretty-prints with that many spaces;
     * 0 emits compact one-line output. Output is deterministic:
     * identical documents always produce identical bytes.
     */
    std::string dump(unsigned indent = 2) const;

  private:
    void dumpTo(std::string &out, unsigned indent,
                unsigned depth) const;

    using Storage = std::variant<std::monostate, bool, std::int64_t,
                                 double, std::string, Array, Members>;
    Storage v_;

    // kind() is v_.index(): every alternative must sit at its Kind.
    template <Kind K>
    using Alt =
        std::variant_alternative_t<static_cast<std::size_t>(K), Storage>;
    static_assert(std::variant_size_v<Storage> ==
                  static_cast<std::size_t>(Kind::Object) + 1);
    static_assert(std::is_same_v<Alt<Kind::Null>, std::monostate>);
    static_assert(std::is_same_v<Alt<Kind::Bool>, bool>);
    static_assert(std::is_same_v<Alt<Kind::Int>, std::int64_t>);
    static_assert(std::is_same_v<Alt<Kind::Double>, double>);
    static_assert(std::is_same_v<Alt<Kind::String>, std::string>);
    static_assert(std::is_same_v<Alt<Kind::Array>, Array>);
    static_assert(std::is_same_v<Alt<Kind::Object>, Members>);
};

/**
 * Parse a JSON document. fatal() on malformed input or nesting
 * deeper than kMaxDepth, with @p what naming the source (file name)
 * in the message.
 */
Value parse(const std::string &text, const std::string &what = "json");

/** Render a double exactly as dump() does (shortest round-trip form). */
std::string formatDouble(double v);

/**
 * Checked member reads for document loaders. Each looks @p key up in
 * @p obj once and fatal()s, naming @p what (the part being read, e.g.
 * "results: run record") and the key, when the member is missing or
 * of the wrong kind; a non-object @p obj has no members.
 */
std::uint64_t requireU64(const Value &obj, const char *key,
                         const char *what);
/** An Int or Double member, as a double. */
double requireNumber(const Value &obj, const char *key, const char *what);
bool requireBool(const Value &obj, const char *key, const char *what);
const std::string &requireString(const Value &obj, const char *key,
                                 const char *what);
const Array &requireArray(const Value &obj, const char *key,
                          const char *what);
const Value &requireObject(const Value &obj, const char *key,
                           const char *what);

} // namespace json
} // namespace carve

#endif // CARVE_HARNESS_JSON_HH
