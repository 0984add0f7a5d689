#include "obs/trace_read.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "obs/json.h"

namespace cim::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over a bounded view. Positions advance through
// `text_`; errors carry the offset for debuggability.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      if (error != nullptr) {
        *error = err_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.s);
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out.kind = JsonValue::Kind::kBool;
          out.b = true;
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out.kind = JsonValue::Kind::kBool;
          out.b = false;
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out.kind = JsonValue::Kind::kNull;
          return true;
        }
        return fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      skip_ws();
      JsonValue member;
      if (!parse_value(member)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      JsonValue item;
      if (!parse_value(item)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // The emitter only escapes control characters; decode the ASCII
          // range and pass anything else through as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        integral = false;
        ++pos_;
      } else if ((c == '+' || c == '-') && !integral) {
        ++pos_;  // exponent sign
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    if (integral) {
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out.kind = JsonValue::Kind::kInt;
        out.i = v;
        return true;
      }
      // Overflow (e.g. a full-range u64 wid): fall through to double, and
      // also try unsigned so 64-bit wids keep exact integer precision.
      errno = 0;
      const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out.kind = JsonValue::Kind::kInt;
        out.i = static_cast<std::int64_t>(u);  // two's-complement round-trip
        return true;
      }
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out.kind = JsonValue::Kind::kDouble;
    out.d = d;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  return Parser(text).parse(out, error);
}

void write_json_value(std::ostream& os, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: os << "null"; break;
    case JsonValue::Kind::kBool: os << (v.b ? "true" : "false"); break;
    case JsonValue::Kind::kInt: os << v.i; break;
    case JsonValue::Kind::kDouble: json_double(os, v.d); break;
    case JsonValue::Kind::kString: json_string(os, v.s); break;
    case JsonValue::Kind::kArray: {
      os << '[';
      bool first = true;
      for (const JsonValue& item : v.items) {
        if (!first) os << ',';
        first = false;
        write_json_value(os, item);
      }
      os << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, member] : v.members) {
        if (!first) os << ',';
        first = false;
        json_string(os, k);
        os << ':';
        write_json_value(os, member);
      }
      os << '}';
      break;
    }
  }
}

std::int64_t ParsedTraceEvent::field_int(std::string_view key,
                                         std::int64_t def) const {
  const JsonValue* v = fields.find(key);
  return v != nullptr && v->is_number() ? v->as_int() : def;
}

std::string_view ParsedTraceEvent::field_str(std::string_view key) const {
  const JsonValue* v = fields.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString
             ? std::string_view(v->s)
             : std::string_view{};
}

bool ParsedTraceEvent::field_proc(std::string_view key, ProcId& out) const {
  const std::string_view s = field_str(key);
  const std::size_t dot = s.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= s.size()) {
    return false;
  }
  unsigned sys = 0, idx = 0;
  for (char c : s.substr(0, dot)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    sys = sys * 10 + unsigned(c - '0');
  }
  for (char c : s.substr(dot + 1)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    idx = idx * 10 + unsigned(c - '0');
  }
  out = ProcId{SystemId{static_cast<std::uint16_t>(sys)},
               static_cast<std::uint16_t>(idx)};
  return true;
}

bool parse_trace_line(std::string_view line, ParsedTraceEvent& out,
                      std::string* error) {
  JsonValue root;
  if (!parse_json(line, root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "trace record is not an object";
    return false;
  }
  const JsonValue* cat = root.find("cat");
  const JsonValue* name = root.find("ev");
  if (cat == nullptr || cat->kind != JsonValue::Kind::kString ||
      name == nullptr || name->kind != JsonValue::Kind::kString) {
    if (error != nullptr) *error = "trace record misses cat/ev";
    return false;
  }
  out = ParsedTraceEvent{};
  if (const JsonValue* v = root.find("v"); v != nullptr && v->is_number()) {
    out.v = static_cast<int>(v->as_int());
  }
  if (const JsonValue* v = root.find("seq"); v != nullptr && v->is_number()) {
    out.seq = static_cast<std::uint64_t>(v->as_int());
  }
  if (const JsonValue* v = root.find("t"); v != nullptr && v->is_number()) {
    out.t = v->as_int();
  }
  out.cat = cat->s;
  out.name = name->s;
  if (const JsonValue* f = root.find("f");
      f != nullptr && f->kind == JsonValue::Kind::kObject) {
    out.fields = *f;
  }
  return true;
}

std::vector<ParsedTraceEvent> read_trace_jsonl(
    std::istream& in, std::vector<std::string>* errors) {
  std::vector<ParsedTraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ParsedTraceEvent ev;
    std::string err;
    if (parse_trace_line(line, ev, &err)) {
      events.push_back(std::move(ev));
    } else if (errors != nullptr) {
      errors->push_back("line " + std::to_string(lineno) + ": " + err);
    }
  }
  return events;
}

}  // namespace cim::obs
