// Small string utilities shared by the AIDL parser, filesystem paths, and
// report formatting.
#ifndef FLUX_SRC_BASE_STRINGS_H_
#define FLUX_SRC_BASE_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace flux {

// Splits on a single character; empty pieces are kept.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Splits on a separator and drops empty pieces (useful for paths).
std::vector<std::string> StrSplitSkipEmpty(std::string_view text, char sep);

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

std::string_view StrTrim(std::string_view text);

bool StrStartsWith(std::string_view text, std::string_view prefix);
bool StrEndsWith(std::string_view text, std::string_view suffix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Formats a byte count as "12.3 MB" / "456 KB" / "789 B".
std::string HumanBytes(uint64_t bytes);

// Appends `s` escaped for the body of a JSON string: quote, backslash,
// \n, \t and \r by name, every other control byte as \u00XX.
void AppendJsonEscaped(std::string& out, std::string_view s);

}  // namespace flux

#endif  // FLUX_SRC_BASE_STRINGS_H_
