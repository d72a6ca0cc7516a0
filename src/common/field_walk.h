/**
 * @file
 * The vocabulary of a config struct's field walk. Each config struct has
 * one walkFields() function template that names every field once, in
 * RunSpec hash order, with its JSON name, its legal range and the
 * condition under which it can shape a result. Validation, the RunSpec
 * hash and the spec JSON are visitors over that walk, so the "when does
 * this field matter" logic is written once per struct.
 *
 * A visitor provides:
 *  - operator()(const FieldRow<T> &) for each field;
 *  - enter(key, open, path) / leave() around a nested block (@p open:
 *    the block is written to JSON; @p path names it in messages when it
 *    differs from @p key);
 *  - gate(matters, value) for a derived switch the hash keys on
 *    (e.g. "node faults armed") that is no field of its own;
 *  - rule(ok, what, got) for a cross-field rule validation reports.
 *
 * requireField() serves the validate() functions of configs without a
 * walk.
 */
#ifndef SMARTINF_COMMON_FIELD_WALK_H
#define SMARTINF_COMMON_FIELD_WALK_H

#include <array>
#include <concepts>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace smartinf {

/** @name Range bounds. @{ */
/** The smallest positive double: lo = kTiny means "> 0". */
constexpr double kTiny = std::numeric_limits<double>::denorm_min();
/** The largest finite double: hi = kFiniteMax means "finite". */
constexpr double kFiniteMax = std::numeric_limits<double>::max();
/** No upper bound (inf passes). */
constexpr double kUnbounded = std::numeric_limits<double>::infinity();
/** @} */

/** A legal range [lo, hi] (NaN fails it), with the rule as validation
 *  reports it ("<field> must be <rule>, got <value>"). */
struct FieldRange {
    double lo;
    double hi;
    const char *rule;
};

/** One field as a walk hands it to a visitor. */
template <typename T>
struct FieldRow {
    /** JSON key; validation messages name the block path to it. */
    const char *name;
    T &value;
    /** The field can shape the result: the hash and the JSON keep it. */
    bool matters;
    /** Legal range, or nullptr when the field has none. */
    const FieldRange *range;
    /** Validation checks the range. */
    bool checked;
    /** Stable name of an enum value (JSON), or nullptr. */
    const char *(*label)(std::remove_const_t<T>);
};

/** Restricts a walk to one struct, const or not (a test may walk a
 *  mutable config to perturb its rows). */
template <typename C, typename S>
concept FieldsOf = std::same_as<std::remove_const_t<C>, S>;

/** A field with no range rule. */
template <typename V, typename T>
void
field(V &v, const char *name, T &value, bool matters)
{
    v(FieldRow<T>{name, value, matters, nullptr, false, nullptr});
}

/** An enum field, with its stable-name function. */
template <typename V, typename T, typename E>
void
field(V &v, const char *name, T &value, bool matters,
      const char *(*label)(E))
{
    v(FieldRow<T>{name, value, matters, nullptr, false, label});
}

/** A field whose range is checked exactly when it matters. */
template <typename V, typename T>
void
field(V &v, const char *name, T &value, bool matters,
      const FieldRange &range)
{
    v(FieldRow<T>{name, value, matters, &range, matters, nullptr});
}

/** A field whose range is checked under its own condition. */
template <typename V, typename T>
void
field(V &v, const char *name, T &value, bool matters,
      const FieldRange &range, bool checked)
{
    v(FieldRow<T>{name, value, matters, &range, checked, nullptr});
}

/** Append "@p what, got @p got" to @p errors unless @p ok. */
template <typename T>
void
requireField(std::vector<std::string> &errors, bool ok, const char *what,
             const T &got)
{
    if (ok)
        return;
    std::ostringstream oss;
    oss << what << ", got " << got;
    errors.push_back(oss.str());
}

/** Walks @p config as the nested block @p key of the walk @p v is in. */
template <typename V, typename C, typename... Scope>
void
block(V &v, const char *key, C &config, const Scope &...scope)
{
    v.enter(key, true);
    walkFields(v, config, scope...);
    v.leave();
}

/**
 * The validate() visitor: appends "<path.name> must be <rule>, got <v>"
 * per checked field out of range, and "<path.what>, got <got>" per broken
 * rule. A valid config builds no string and allocates nothing.
 */
class FieldValidator
{
  public:
    explicit FieldValidator(std::vector<std::string> &errors)
        : errors_(errors)
    {}

    template <typename T>
    void
    operator()(const FieldRow<T> &row)
    {
        if constexpr (std::is_arithmetic_v<std::remove_const_t<T>>) {
            if (!row.range || !row.checked)
                return;
            const double v = static_cast<double>(row.value);
            if (!(v >= row.range->lo && v <= row.range->hi))
                report(row.name, " must be ", row.range->rule, row.value);
        }
    }

    void
    enter(const char *key, bool, const char *path = nullptr)
    {
        path_[depth_++] = path ? path : key;
    }

    void leave() { --depth_; }

    void gate(bool, bool) {}

    template <typename T>
    void
    rule(bool ok, const char *what, const T &got)
    {
        if (!ok)
            report(what, "", "", got);
    }

  private:
    template <typename T>
    void
    report(const char *a, const char *b, const char *c, const T &got)
    {
        std::ostringstream oss;
        for (int i = 0; i < depth_; ++i)
            oss << path_[i] << '.';
        oss << a << b << c << ", got " << got;
        errors_.push_back(oss.str());
    }

    std::vector<std::string> &errors_;
    std::array<const char *, 4> path_{};
    int depth_ = 0;
};

} // namespace smartinf

#endif // SMARTINF_COMMON_FIELD_WALK_H
