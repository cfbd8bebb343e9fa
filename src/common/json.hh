/**
 * @file
 * Minimal JSON value tree + strict parser: the only JSON reader in
 * the repo. Service frames, run-cache entries, shard heartbeats,
 * campaign and bench journals, and trace files all parse through
 * parseJson() and the typed field accessors below, so every reader of
 * untrusted bytes shares one grammar and one set of range checks.
 * Two properties matter more than generality:
 *
 *  - numbers keep their raw source token, so a parsed journal can be
 *    re-serialized byte-identically (the merge and service layers both
 *    promise bit-exact journals);
 *  - parsing is strict (no trailing content, no unknown escapes), so
 *    a torn or hand-mangled document fails loudly instead of yielding
 *    a half-read record.
 *
 * Writing stays with the callers — each emitter owns its exact byte
 * layout — but jsonEscapeString() is shared so every emitter escapes
 * control characters the same reversible way, and jsonDoubleToken()
 * so every emitter spells a double the same round-tripping way.
 */

#ifndef DMDC_COMMON_JSON_HH
#define DMDC_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dmdc
{

/** One JSON value; object fields keep their source order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; ///< string value (unescaped) or raw number token
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &f : fields) {
            if (f.first == key)
                return &f.second;
        }
        return nullptr;
    }
};

/** Parse @p text into @p out. False + @p err on any syntax error
 *  (including trailing content after the document). */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &err);

/**
 * Escape @p s for embedding in a JSON string literal, reversibly:
 * quotes and backslashes are backslash-escaped, control characters
 * become \n/\r/\t/\u00XX. (The journal writers intentionally use a
 * lossy space-substitution instead — journal bytes are contractual —
 * so this is for protocol payloads, not journals.)
 */
std::string jsonEscapeString(const std::string &s);

/** Shortest decimal form that round-trips an IEEE double exactly
 *  ("%.17g"); journal and cache-entry bytes depend on this spelling. */
std::string jsonDoubleToken(double v);

/*
 * Strict typed accessors for object fields. Each returns false, and
 * leaves @p out untouched, when @p key is absent, holds a different
 * kind, or holds a number @p out cannot represent exactly:
 *  - fieldU64 / fieldUnsigned accept plain decimal digits only (no
 *    sign, fraction or exponent) within the target type's range;
 *  - fieldDouble accepts any finite number.
 */
bool fieldString(const JsonValue &obj, const char *key,
                 std::string &out);
bool fieldU64(const JsonValue &obj, const char *key, std::uint64_t &out);
bool fieldUnsigned(const JsonValue &obj, const char *key, unsigned &out);
bool fieldDouble(const JsonValue &obj, const char *key, double &out);
bool fieldBool(const JsonValue &obj, const char *key, bool &out);

} // namespace dmdc

#endif // DMDC_COMMON_JSON_HH
