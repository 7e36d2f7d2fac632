// The declarative scenario/spec format (docs/CONFIGURATION.md).
//
// Every suite, admission policy, and loop parameter in this repo used to be
// hard-coded in C++ main()s — adding a scenario meant recompiling. This
// layer makes "new workload" a config file instead: a dependency-free
// INI/TOML-subset parser producing positioned, typed sections that
// config::ConfigLoader (scenario.hpp) turns into real runtime objects.
//
// Grammar (line oriented; `#` starts a comment anywhere):
//
//   [kind]               # a section
//   [kind label]         # a labeled section (label may be quoted)
//   key = value          # entries belong to the preceding section
//
// Values are typed at parse time:
//
//   name  = "cam north"  # quoted string (\" \\ \n \t escapes)
//   shards = 4           # integer
//   floor  = 1.5         # double
//   live   = true        # boolean (true/false)
//   policy = block       # bare string (letters, digits, _ - . : /)
//   names  = [a, b, c]   # list of scalars (no nested lists)
//
// Every section, key, and value carries its 1-based line/column so
// validation errors anywhere up the stack (typed getters, schema checks,
// the loader) point at the offending spot in the file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omg::config {

/// Error thrown by the parser, the typed getters, and the loader; the
/// message is prefixed "<source>:<line>:<col>: " so it points into the
/// offending config text.
class SpecError : public std::runtime_error {
 public:
  SpecError(const std::string& source, std::size_t line, std::size_t col,
            const std::string& message);

  /// 1-based line of the offending token (0 when unknown).
  std::size_t line() const { return line_; }
  /// 1-based column of the offending token (0 when unknown).
  std::size_t col() const { return col_; }

 private:
  std::size_t line_;
  std::size_t col_;
};

/// One parsed value with its source position and parse-time type.
struct SpecValue {
  /// Parse-time type of a value. Bare tokens that look like numbers or
  /// booleans are typed as such; anything else bare is a string.
  enum class Type { kString, kInt, kDouble, kBool, kList };

  Type type = Type::kString;
  std::string string_value;        ///< set for kString
  std::int64_t int_value = 0;      ///< set for kInt
  double double_value = 0.0;       ///< set for kDouble
  bool bool_value = false;         ///< set for kBool
  std::vector<SpecValue> list;     ///< set for kList (scalar elements only)

  std::size_t line = 0;  ///< 1-based source line
  std::size_t col = 0;   ///< 1-based source column

  /// Human-readable type name ("string", "int", ...), for error messages.
  static std::string_view TypeName(Type type);
};

/// One `key = value` entry of a section, in file order.
struct SpecEntry {
  std::string key;
  SpecValue value;
  std::size_t line = 0;
  std::size_t col = 0;
};

/// One `[kind]` / `[kind label]` section: an ordered flat map of typed
/// entries plus the machinery for unknown-key rejection.
///
/// The typed getters coerce where lossless (int -> double; a single scalar
/// -> a one-element list) and throw SpecError at the value's position
/// otherwise. Each getter marks its key *consumed*; after a consumer has
/// read everything it understands, RejectUnknownKeys() turns any leftover
/// key into an error at that key's position — so typos in config files
/// fail loudly instead of silently falling back to defaults.
class SpecSection {
 public:
  SpecSection() = default;
  SpecSection(std::string source, std::string kind, std::string label,
              std::size_t line, std::size_t col);

  /// Section kind — the bare word of the header (`[runtime]` -> "runtime").
  const std::string& kind() const { return kind_; }
  /// Section label (`[stream cam-north]` -> "cam-north"; "" when absent).
  const std::string& label() const { return label_; }
  /// Source name the section was parsed from (for error messages).
  const std::string& source() const { return source_; }

  /// Entries in file order.
  const std::vector<SpecEntry>& entries() const { return entries_; }
  /// True when the key is present.
  bool Has(const std::string& key) const;
  /// The raw value of `key`, or nullptr when absent (does not consume).
  const SpecValue* Find(const std::string& key) const;

  // Typed getters with fallbacks; each throws SpecError on a type mismatch
  // and marks the key consumed when present.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  std::vector<std::string> GetStringList(
      const std::string& key, std::vector<std::string> fallback) const;

  // Required variants: throw SpecError at the section header when absent.
  std::string RequireString(const std::string& key) const;

  /// GetInt + a >= 0 check, converted to size_t (queue sizes, counts...).
  std::size_t GetSize(const std::string& key, std::size_t fallback) const;

  /// Throws SpecError at the first key no getter has consumed. Call after
  /// reading every key a consumer understands.
  void RejectUnknownKeys() const;

  /// Marks a key consumed without reading it (for keys handled out of
  /// band, e.g. a schema validator that inspects raw values).
  void MarkConsumed(const std::string& key) const { consumed_.insert(key); }

  /// A SpecError positioned at this section's header.
  SpecError ErrorHere(const std::string& message) const;
  /// A SpecError positioned at `key`'s value (or the header when absent).
  SpecError ErrorAt(const std::string& key, const std::string& message) const;

  /// Appends an entry (parser-side; duplicate keys throw).
  void Append(SpecEntry entry);

 private:
  const SpecValue& Require(const std::string& key) const;

  std::string source_;
  std::string kind_;
  std::string label_;
  std::size_t line_ = 0;
  std::size_t col_ = 0;
  std::vector<SpecEntry> entries_;
  /// Keys read through the typed getters; mutable because reading a value
  /// is logically const. Copied sections track consumption independently.
  mutable std::set<std::string> consumed_;
};

/// A parsed spec file: the ordered list of its sections.
class SpecDocument {
 public:
  /// Parses `text`. `source` names the input in error messages.
  static SpecDocument Parse(std::string_view text,
                            std::string source = "<string>");
  /// Reads and parses a file; throws SpecError when unreadable.
  static SpecDocument ParseFile(const std::string& path);

  /// Source name given at parse time.
  const std::string& source() const { return source_; }
  /// Sections in file order.
  const std::vector<SpecSection>& sections() const { return sections_; }

  /// First section of `kind` with `label`, or nullptr.
  const SpecSection* Find(const std::string& kind,
                          const std::string& label = "") const;
  /// Find() or throw a SpecError naming the missing section.
  const SpecSection& Require(const std::string& kind,
                             const std::string& label = "") const;
  /// All sections of `kind`, in file order.
  std::vector<const SpecSection*> OfKind(const std::string& kind) const;

 private:
  std::string source_;
  std::vector<SpecSection> sections_;
};

}  // namespace omg::config
