/**
 * @file
 * Minimal dependency-free JSON value tree with a serializer and a
 * strict parser.
 *
 * Used by the experiment runner (src/runner) to emit machine-readable
 * results and to read the results documents `pcsim lint --coverage`
 * takes as input. Objects preserve insertion order so a document
 * serializes byte-identically regardless of how it was produced -- a
 * property the runner's determinism checks rely on.
 *
 * Numbers are stored either as an unsigned 64-bit integer (emitted
 * without a decimal point, exact for every simulator counter) or as a
 * double; the parser keeps integer-looking literals integral.
 */

#ifndef PCSIM_SIM_JSON_HH
#define PCSIM_SIM_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pcsim
{

/** Error thrown by JsonValue::parse on malformed input. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &what, std::size_t offset)
        : std::runtime_error(what + " at offset " +
                             std::to_string(offset)),
          _offset(offset)
    {
    }

    std::size_t offset() const { return _offset; }

  private:
    std::size_t _offset;
};

/** A JSON document node: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        UInt,   ///< non-negative integer, exact up to 2^64-1
        Double, ///< any other number
        String,
        Array,
        Object,
    };

    JsonValue() : _type(Type::Null) {}
    JsonValue(bool b) : _type(Type::Bool), _bool(b) {}
    JsonValue(double d) : _type(Type::Double), _double(d) {}
    JsonValue(std::uint64_t u) : _type(Type::UInt), _uint(u) {}
    JsonValue(std::uint32_t u) : JsonValue(std::uint64_t(u)) {}
    JsonValue(int i);
    JsonValue(std::string s) : _type(Type::String), _string(std::move(s))
    {
    }
    JsonValue(const char *s) : JsonValue(std::string(s)) {}

    static JsonValue object();
    static JsonValue array();

    Type type() const { return _type; }
    bool isArray() const { return _type == Type::Array; }

    bool asBool() const;
    std::uint64_t asUInt() const;
    double asDouble() const;
    const std::string &asString() const;

    // --- array ---------------------------------------------------
    /** Append to an array (null values become arrays on first push). */
    JsonValue &push(JsonValue v);
    std::size_t size() const;
    const JsonValue &at(std::size_t i) const;

    // --- object --------------------------------------------------
    /** Get-or-insert a member (null values become objects). */
    JsonValue &operator[](const std::string &key);
    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
    /** Member lookup; throws std::out_of_range when absent. */
    const JsonValue &at(const std::string &key) const;
    bool contains(const std::string &key) const
    {
        return find(key) != nullptr;
    }
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return _members;
    }

    // --- serialization -------------------------------------------
    /**
     * Serialize. @p indent < 0 gives the compact single-line form;
     * >= 0 pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /** Escape @p s for embedding in a JSON string literal (no
     *  surrounding quotes). */
    static std::string escape(const std::string &s);

    /** Arrays and objects parse nests at most this deep; pcsim's own
     *  documents nest about 6 levels. */
    static constexpr unsigned maxParseDepth = 256;

    /** Strict parse of a complete document; throws JsonParseError,
     *  also at the bracket that opens level maxParseDepth + 1. */
    static JsonValue parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type _type = Type::Null;
    bool _bool = false;
    std::uint64_t _uint = 0;
    double _double = 0.0;
    std::string _string;
    std::vector<JsonValue> _elements;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

} // namespace pcsim

#endif // PCSIM_SIM_JSON_HH
