// Small string helpers shared by the HTML/CSS/JS scanners, the MHTML
// codec, and URL parsing. Kept allocation-light: most return string_views
// into the input.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace parcel::util {

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);
[[nodiscard]] bool starts_with_ignore_case(std::string_view s,
                                           std::string_view prefix);
/// Equality ignoring the case of ASCII letters.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);
[[nodiscard]] std::string to_lower(std::string_view s);

/// Find the next occurrence of `needle` in `hay` at or after `pos`,
/// ignoring the case of ASCII letters (as iequals). Returns npos if absent
/// or if `pos` > hay.size(); an empty needle matches at `pos`.
[[nodiscard]] std::size_t ifind(std::string_view hay, std::string_view needle,
                                std::size_t pos = 0);

/// Human-readable byte count ("1.25 MB").
[[nodiscard]] std::string format_bytes(long long bytes);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string ssprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace parcel::util
