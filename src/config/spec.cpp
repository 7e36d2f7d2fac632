#include "config/spec.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace omg::config {
namespace {

bool IsBareChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' || c == ':' || c == '/';
}

bool IsIdentifier(std::string_view token) {
  if (token.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(token.front())) &&
      token.front() != '_') {
    return false;
  }
  for (const char c : token) {
    if (!IsBareChar(c)) return false;
  }
  return true;
}

/// Classifies a bare (unquoted) token into bool / int / double / string.
SpecValue ClassifyBare(std::string token, std::size_t line, std::size_t col,
                       const std::string& source) {
  SpecValue value;
  value.line = line;
  value.col = col;
  if (token == "true" || token == "false") {
    value.type = SpecValue::Type::kBool;
    value.bool_value = token == "true";
    return value;
  }
  // Integer: optional sign, digits only.
  {
    std::size_t i = (token[0] == '+' || token[0] == '-') ? 1 : 0;
    bool all_digits = i < token.size();
    for (std::size_t j = i; j < token.size(); ++j) {
      if (!std::isdigit(static_cast<unsigned char>(token[j]))) {
        all_digits = false;
        break;
      }
    }
    if (all_digits) {
      try {
        value.int_value = std::stoll(token);
      } catch (const std::out_of_range&) {
        throw SpecError(source, line, col,
                        "integer out of range: " + token);
      }
      value.type = SpecValue::Type::kInt;
      return value;
    }
  }
  // Double: must start with sign/digit/dot and parse completely.
  if (token[0] == '+' || token[0] == '-' || token[0] == '.' ||
      std::isdigit(static_cast<unsigned char>(token[0]))) {
    std::size_t parsed = 0;
    bool ok = true;
    double parsed_value = 0.0;
    try {
      parsed_value = std::stod(token, &parsed);
    } catch (const std::invalid_argument&) {
      ok = false;
    } catch (const std::out_of_range&) {
      throw SpecError(source, line, col, "number out of range: " + token);
    }
    if (ok && parsed == token.size()) {
      value.type = SpecValue::Type::kDouble;
      value.double_value = parsed_value;
      return value;
    }
    // Tokens like `3x` or `1.2.3` reach here: they *look* numeric but are
    // not — calling them strings would hide typos in numeric keys.
    throw SpecError(source, line, col, "malformed number: " + token);
  }
  value.type = SpecValue::Type::kString;
  value.string_value = std::move(token);
  return value;
}

/// Cursor over one logical line; columns are 1-based.
struct LineCursor {
  const std::string& source;
  std::string_view text;
  std::size_t line;
  std::size_t pos = 0;

  std::size_t Col() const { return pos + 1; }
  bool AtEnd() const { return pos >= text.size() || text[pos] == '#'; }
  char Peek() const { return text[pos]; }

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r')) {
      ++pos;
    }
  }

  [[noreturn]] void Fail(const std::string& message) const {
    throw SpecError(source, line, Col(), message);
  }

  /// Parses a double-quoted string starting at the cursor.
  SpecValue QuotedString() {
    SpecValue value;
    value.type = SpecValue::Type::kString;
    value.line = line;
    value.col = Col();
    ++pos;  // opening quote
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos];
      if (c == '\\') {
        if (pos + 1 >= text.size()) Fail("dangling escape in string");
        const char escaped = text[pos + 1];
        switch (escaped) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default:
            Fail(std::string("unknown escape \\") + escaped);
        }
        ++pos;
      }
      out.push_back(c);
      ++pos;
    }
    if (pos >= text.size()) {
      throw SpecError(source, line, value.col, "unterminated string");
    }
    ++pos;  // closing quote
    value.string_value = std::move(out);
    return value;
  }

  /// Parses a bare token starting at the cursor.
  SpecValue BareToken() {
    const std::size_t start = pos;
    const std::size_t col = Col();
    while (pos < text.size() && IsBareChar(text[pos])) ++pos;
    if (pos == start) {
      Fail(std::string("unexpected character '") + text[pos] + "'");
    }
    return ClassifyBare(std::string(text.substr(start, pos - start)), line,
                        col, source);
  }

  /// Parses one scalar (quoted string or bare token).
  SpecValue Scalar() {
    if (Peek() == '"') return QuotedString();
    if (Peek() == '[') Fail("nested lists are not supported");
    return BareToken();
  }

  /// Parses a value: scalar or `[v, v, ...]` list (single line).
  SpecValue Value() {
    if (Peek() != '[') return Scalar();
    SpecValue value;
    value.type = SpecValue::Type::kList;
    value.line = line;
    value.col = Col();
    ++pos;  // '['
    SkipSpace();
    if (!AtEnd() && Peek() == ']') {
      ++pos;
      return value;
    }
    for (;;) {
      SkipSpace();
      if (AtEnd()) Fail("unterminated list");
      value.list.push_back(Scalar());
      SkipSpace();
      if (AtEnd()) Fail("unterminated list");
      if (Peek() == ']') {
        ++pos;
        return value;
      }
      if (Peek() != ',') Fail("expected ',' or ']' in list");
      ++pos;  // ','
    }
  }
};

}  // namespace

SpecError::SpecError(const std::string& source, std::size_t line,
                     std::size_t col, const std::string& message)
    : std::runtime_error(source + ":" + std::to_string(line) + ":" +
                         std::to_string(col) + ": " + message),
      line_(line),
      col_(col) {}

std::string_view SpecValue::TypeName(Type type) {
  switch (type) {
    case Type::kString: return "string";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kBool: return "bool";
    case Type::kList: return "list";
  }
  return "?";
}

SpecSection::SpecSection(std::string source, std::string kind,
                         std::string label, std::size_t line, std::size_t col)
    : source_(std::move(source)),
      kind_(std::move(kind)),
      label_(std::move(label)),
      line_(line),
      col_(col) {}

bool SpecSection::Has(const std::string& key) const {
  return Find(key) != nullptr;
}

const SpecValue* SpecSection::Find(const std::string& key) const {
  for (const auto& entry : entries_) {
    if (entry.key == key) return &entry.value;
  }
  return nullptr;
}

const SpecValue& SpecSection::Require(const std::string& key) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) {
    throw ErrorHere("missing required key '" + key + "' in [" + kind_ +
                    (label_.empty() ? "" : " " + label_) + "]");
  }
  consumed_.insert(key);
  return *value;
}

std::string SpecSection::GetString(const std::string& key,
                                   const std::string& fallback) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) return fallback;
  consumed_.insert(key);
  if (value->type != SpecValue::Type::kString) {
    throw SpecError(source_, value->line, value->col,
                    "key '" + key + "' expects a string, got " +
                        std::string(SpecValue::TypeName(value->type)));
  }
  return value->string_value;
}

std::int64_t SpecSection::GetInt(const std::string& key,
                                 std::int64_t fallback) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) return fallback;
  consumed_.insert(key);
  if (value->type != SpecValue::Type::kInt) {
    throw SpecError(source_, value->line, value->col,
                    "key '" + key + "' expects an int, got " +
                        std::string(SpecValue::TypeName(value->type)));
  }
  return value->int_value;
}

double SpecSection::GetDouble(const std::string& key, double fallback) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) return fallback;
  consumed_.insert(key);
  // Int -> double is the one lossless coercion the format allows.
  if (value->type == SpecValue::Type::kInt) {
    return static_cast<double>(value->int_value);
  }
  if (value->type != SpecValue::Type::kDouble) {
    throw SpecError(source_, value->line, value->col,
                    "key '" + key + "' expects a number, got " +
                        std::string(SpecValue::TypeName(value->type)));
  }
  return value->double_value;
}

bool SpecSection::GetBool(const std::string& key, bool fallback) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) return fallback;
  consumed_.insert(key);
  if (value->type != SpecValue::Type::kBool) {
    throw SpecError(source_, value->line, value->col,
                    "key '" + key + "' expects true or false, got " +
                        std::string(SpecValue::TypeName(value->type)));
  }
  return value->bool_value;
}

std::vector<std::string> SpecSection::GetStringList(
    const std::string& key, std::vector<std::string> fallback) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) return fallback;
  consumed_.insert(key);
  // A single string reads as a one-element list.
  if (value->type == SpecValue::Type::kString) {
    return {value->string_value};
  }
  if (value->type != SpecValue::Type::kList) {
    throw SpecError(source_, value->line, value->col,
                    "key '" + key + "' expects a list of strings, got " +
                        std::string(SpecValue::TypeName(value->type)));
  }
  std::vector<std::string> out;
  out.reserve(value->list.size());
  for (const SpecValue& element : value->list) {
    if (element.type != SpecValue::Type::kString) {
      throw SpecError(source_, element.line, element.col,
                      "key '" + key + "' expects string elements, got " +
                          std::string(SpecValue::TypeName(element.type)));
    }
    out.push_back(element.string_value);
  }
  return out;
}

std::string SpecSection::RequireString(const std::string& key) const {
  Require(key);
  return GetString(key, "");
}

std::size_t SpecSection::GetSize(const std::string& key,
                                 std::size_t fallback) const {
  const std::int64_t raw =
      GetInt(key, static_cast<std::int64_t>(fallback));
  if (raw < 0) {
    throw ErrorAt(key, "key '" + key + "' must be >= 0, got " +
                           std::to_string(raw));
  }
  return static_cast<std::size_t>(raw);
}

void SpecSection::RejectUnknownKeys() const {
  for (const auto& entry : entries_) {
    if (consumed_.count(entry.key) == 0) {
      throw SpecError(source_, entry.line, entry.col,
                      "unknown key '" + entry.key + "' in [" + kind_ +
                          (label_.empty() ? "" : " " + label_) + "]");
    }
  }
}

SpecError SpecSection::ErrorHere(const std::string& message) const {
  return SpecError(source_, line_, col_, message);
}

SpecError SpecSection::ErrorAt(const std::string& key,
                               const std::string& message) const {
  const SpecValue* value = Find(key);
  if (value == nullptr) return ErrorHere(message);
  return SpecError(source_, value->line, value->col, message);
}

void SpecSection::Append(SpecEntry entry) {
  if (Has(entry.key)) {
    throw SpecError(source_, entry.line, entry.col,
                    "duplicate key '" + entry.key + "' in [" + kind_ +
                        (label_.empty() ? "" : " " + label_) + "]");
  }
  entries_.push_back(std::move(entry));
}

SpecDocument SpecDocument::Parse(std::string_view text, std::string source) {
  SpecDocument doc;
  doc.source_ = std::move(source);

  std::size_t line_number = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find('\n', begin);
    std::string_view line = text.substr(
        begin, end == std::string_view::npos ? text.size() - begin
                                             : end - begin);
    ++line_number;
    begin = end == std::string_view::npos ? text.size() + 1 : end + 1;

    LineCursor cursor{doc.source_, line, line_number};
    cursor.SkipSpace();
    if (cursor.AtEnd()) continue;

    if (cursor.Peek() == '[') {
      // Section header: [kind] or [kind label] or [kind "label"].
      const std::size_t header_col = cursor.Col();
      ++cursor.pos;
      cursor.SkipSpace();
      if (cursor.AtEnd()) cursor.Fail("unterminated section header");
      const SpecValue kind = cursor.BareToken();
      if (kind.type != SpecValue::Type::kString ||
          !IsIdentifier(kind.string_value)) {
        throw SpecError(doc.source_, line_number, kind.col,
                        "section kind must be an identifier");
      }
      cursor.SkipSpace();
      std::string label;
      if (!cursor.AtEnd() && cursor.Peek() != ']') {
        const SpecValue parsed = cursor.Scalar();
        // Any scalar shape is accepted as a label and kept verbatim
        // (stream names like "ward-1" classify as strings; "42" as int).
        switch (parsed.type) {
          case SpecValue::Type::kString: label = parsed.string_value; break;
          case SpecValue::Type::kInt:
            label = std::to_string(parsed.int_value);
            break;
          default:
            throw SpecError(doc.source_, line_number, parsed.col,
                            "section label must be a name or string");
        }
        cursor.SkipSpace();
      }
      if (cursor.AtEnd() || cursor.Peek() != ']') {
        cursor.Fail("expected ']' to close section header");
      }
      ++cursor.pos;
      cursor.SkipSpace();
      if (!cursor.AtEnd()) cursor.Fail("junk after section header");

      if (doc.Find(kind.string_value, label) != nullptr) {
        throw SpecError(doc.source_, line_number, header_col,
                        "duplicate section [" + kind.string_value +
                            (label.empty() ? "" : " " + label) + "]");
      }
      doc.sections_.emplace_back(doc.source_, kind.string_value, label,
                                 line_number, header_col);
      continue;
    }

    // key = value entry.
    const SpecValue key = cursor.BareToken();
    if (key.type != SpecValue::Type::kString ||
        !IsIdentifier(key.string_value)) {
      throw SpecError(doc.source_, line_number, key.col,
                      "entry key must be an identifier");
    }
    cursor.SkipSpace();
    if (cursor.AtEnd() || cursor.Peek() != '=') {
      cursor.Fail("expected '=' after key '" + key.string_value + "'");
    }
    ++cursor.pos;
    cursor.SkipSpace();
    if (cursor.AtEnd()) {
      cursor.Fail("missing value for key '" + key.string_value + "'");
    }
    SpecValue value = cursor.Value();
    cursor.SkipSpace();
    if (!cursor.AtEnd()) cursor.Fail("junk after value");

    if (doc.sections_.empty()) {
      throw SpecError(doc.source_, line_number, key.col,
                      "key '" + key.string_value +
                          "' appears before any [section]");
    }
    doc.sections_.back().Append(
        SpecEntry{key.string_value, std::move(value), line_number, key.col});
  }
  return doc;
}

SpecDocument SpecDocument::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw SpecError(path, 0, 0, "cannot open spec file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str(), path);
}

const SpecSection* SpecDocument::Find(const std::string& kind,
                                      const std::string& label) const {
  for (const auto& section : sections_) {
    if (section.kind() == kind && section.label() == label) return &section;
  }
  return nullptr;
}

const SpecSection& SpecDocument::Require(const std::string& kind,
                                         const std::string& label) const {
  const SpecSection* section = Find(kind, label);
  if (section == nullptr) {
    throw SpecError(source_, 0, 0,
                    "missing required section [" + kind +
                        (label.empty() ? "" : " " + label) + "]");
  }
  return *section;
}

std::vector<const SpecSection*> SpecDocument::OfKind(
    const std::string& kind) const {
  std::vector<const SpecSection*> out;
  for (const auto& section : sections_) {
    if (section.kind() == kind) out.push_back(&section);
  }
  return out;
}

}  // namespace omg::config
