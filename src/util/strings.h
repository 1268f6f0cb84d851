// Small string utilities used by the parsers and report printers.
#ifndef FSR_UTIL_STRINGS_H
#define FSR_UTIL_STRINGS_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fsr::util {

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on every occurrence of `sep` (single character).
/// Consecutive separators produce empty elements; an empty input produces
/// a single empty element, mirroring common split semantics.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Formats a double with fixed precision (used by report printers so that
/// benchmark output is stable across locales).
std::string format_fixed(double value, int digits);

/// Escapes `text` for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by every JSON renderer so the
/// escaping rules cannot drift between reports.
std::string json_escape(const std::string& text);

/// json_escape plus surrounding double quotes.
std::string json_quoted(const std::string& text);

/// Parses ALL of `text` as a base-10 integer: a uint64 (parse_u64) or an
/// int in [min, max] (parse_int). nullopt on an empty string, any
/// character the number does not consume (space, '+', suffix, exponent, a
/// '-' on parse_u64) or a value outside the range — the strict counterpart
/// of atoi/strtoull, which read "4x" as 4, "abc" as 0 and "1e6" as 1.
std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<int> parse_int(std::string_view text,
                             int min = std::numeric_limits<int>::min(),
                             int max = std::numeric_limits<int>::max());

/// Parses ALL of `text` as a finite decimal number >= 0 ("5", "0.25",
/// "1e3"). nullopt on an empty string, any character the number does not
/// consume ("5x", " 5"), a sign, "inf"/"nan" or a value out of double's
/// range — the strict counterpart of atof, which reads "5x" as 5 and "abc"
/// as 0.
std::optional<double> parse_double(std::string_view text);

/// 64-bit FNV-1a — the toolkit's one content-hash primitive (seed
/// derivation, cache digests, shard-ring placement).
std::uint64_t fnv1a64(std::string_view text) noexcept;

/// fnv1a64 of a canonical form, rendered as 16 hex digits — the short
/// content id of reports, request fingerprints and cache file names.
std::string content_digest(std::string_view canonical);

}  // namespace fsr::util

#endif  // FSR_UTIL_STRINGS_H
