/**
 * @file
 * The one JSON string escaper, shared by the scenario/record writers
 * (exp/) and the Chrome-trace writer (obs/).
 */
#ifndef SMARTINF_COMMON_JSON_H
#define SMARTINF_COMMON_JSON_H

#include <string>

namespace smartinf {

/**
 * Escape @p s for embedding between JSON quotes (adds no quotes): '"',
 * '\\', '\n', '\r' and '\t' get their two-character escapes, every other
 * control character a \u00XX escape.
 */
std::string jsonEscape(const std::string &s);

} // namespace smartinf

#endif // SMARTINF_COMMON_JSON_H
