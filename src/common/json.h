/**
 * @file
 * The one JSON module: a strict parser and a small writer.
 *
 * Every JSON document the system writes (reports, sweep lines, BENCH
 * files, SARIF, Chrome traces, daemon lines) goes through JsonWriter,
 * and every one it reads (daemon requests, BENCH and SARIF baselines,
 * compile_commands.json) through parseJson. The parser takes strict
 * RFC 8259 input, rejects trailing garbage and caps nesting depth;
 * numbers are held as double (protocol ids and seeds fit in 2^53). The
 * writer escapes `"`, `\` and every byte below 0x20, writes integers
 * exactly, doubles in shortest round-trip form (std::to_chars) and
 * NaN/Inf as null.
 */

#ifndef CHASON_COMMON_JSON_H_
#define CHASON_COMMON_JSON_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chason {
namespace common {

/** One parsed JSON value; a tagged tree. */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;                          ///< Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup (first match); null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * The member as a non-negative integer: present, a number, whole,
     * and in [0, 2^53]. Returns false (leaving @p out untouched) for
     * anything else — protocol fields must not round silently.
     */
    bool getUint(const std::string &key, std::uint64_t &out) const;

    /** The member as a string; false when absent or not a string. */
    bool getString(const std::string &key, std::string &out) const;
};

/**
 * Parse @p text (one complete JSON document) into @p out. On failure
 * returns false and puts a human-readable reason with a byte offset
 * into @p error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/**
 * Streaming JSON writer. Values go in document order; the writer
 * inserts commas, colons and (multi-line) indentation. Inside an
 * object every value is preceded by key() — or use field(). Misuse
 * (a value without a key, unbalanced end*()) panics.
 *
 *   JsonWriter w;
 *   w.object([&] {
 *       w.field("id", 7).field("ok", true);
 *       w.array("ys", [&] { w.value(1.5).value(2.0); });
 *   });
 *   w.str(); // {"id":7,"ok":true,"ys":[1.5,2]}
 */
class JsonWriter
{
  public:
    enum class Layout
    {
        Compact,   ///< one line, no spaces
        MultiLine, ///< one member/item per line, two-space indent
    };

    explicit JsonWriter(Layout layout = Layout::Compact)
        : layout_(layout)
    {
    }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** The next member's name; only inside an object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text)
    {
        return value(std::string_view(text));
    }
    JsonWriter &value(bool flag) { return literal(flag ? "true" : "false"); }
    JsonWriter &null() { return literal("null"); }

    /** Shortest round-trip text; NaN and infinities become null. */
    JsonWriter &value(double number);

    /** Integers exactly, whatever their width. */
    template <std::integral T>
    JsonWriter &value(T number)
    {
        char buf[24];
        const char *end = std::to_chars(buf, buf + sizeof(buf), number).ptr;
        return literal(std::string_view(buf, end - buf));
    }

    /** A vector as an array of its elements. */
    template <class T>
    JsonWriter &value(const std::vector<T> &items)
    {
        beginArray();
        for (const T &item : items)
            value(item);
        return endArray();
    }

    /** key(@p name) followed by value(@p v). */
    template <class T>
    JsonWriter &field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** An object whose members @p body writes. */
    template <class Body>
    JsonWriter &object(Body &&body)
    {
        beginObject();
        body();
        return endObject();
    }

    template <class Body>
    JsonWriter &object(std::string_view name, Body &&body)
    {
        key(name);
        return object(body);
    }

    /** An array whose items @p body writes. */
    template <class Body>
    JsonWriter &array(std::string_view name, Body &&body)
    {
        key(name);
        beginArray();
        body();
        return endArray();
    }

    /** The text written so far. */
    const std::string &str() const { return out_; }

  private:
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    /** @p text verbatim as the next value. */
    JsonWriter &literal(std::string_view text);
    /** Commas, indentation and key/value bookkeeping before a value
     *  or a key. */
    void separate(bool isKey);
    void newline(std::size_t depth);
    void appendString(std::string_view text);

    struct Frame
    {
        bool object;
        bool empty = true;
    };

    std::string out_;
    std::vector<Frame> frames_;
    bool afterKey_ = false;
    Layout layout_;
};

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_JSON_H_
