#include "json.hpp"

#include <cstdlib>
#include <cstring>

namespace perfbench::json {
namespace {

class Parser {
 public:
  Parser(std::string_view text, Handler* handler) : s_(text), h_(handler) {}

  std::string run() {
    skip_ws();
    if (!value(0)) return error_;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing bytes");
    return "";
  }

 private:
  static constexpr int kMaxDepth = 256;

  std::string fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string("json: ") + what + " at byte " + std::to_string(pos_);
    }
    return error_;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) {
      fail("bad literal");
      return false;
    }
    pos_ += n;
    return true;
  }

  /// Parses a string at pos_ (opening quote). Returns a view into the
  /// source when the string has no escapes, else into scratch_.
  bool string_token(std::string_view* out) {
    ++pos_;  // opening quote
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        fail("control character in string");
        return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      fail("unterminated string");
      return false;
    }
    if (s_[pos_] == '"') {
      *out = s_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    scratch_.assign(s_.data() + start, pos_ - start);
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        *out = scratch_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
        return false;
      }
      if (c != '\\') {
        scratch_.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': scratch_.push_back('"'); break;
        case '\\': scratch_.push_back('\\'); break;
        case '/': scratch_.push_back('/'); break;
        case 'b': scratch_.push_back('\b'); break;
        case 'f': scratch_.push_back('\f'); break;
        case 'n': scratch_.push_back('\n'); break;
        case 'r': scratch_.push_back('\r'); break;
        case 't': scratch_.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("short \\u escape");
            return false;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
              return false;
            }
          }
          // UTF-8 encode (surrogate pairs are not produced by the
          // writers under test; they pass through as two code units).
          if (cp < 0x80) {
            scratch_.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            scratch_.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            scratch_.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            scratch_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool number_token() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      digits = digits || (s_[pos_] >= '0' && s_[pos_] <= '9');
      ++pos_;
    }
    if (!digits) {
      fail("bad number");
      return false;
    }
    num_buf_.assign(s_.data() + start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(num_buf_.c_str(), &end);
    if (end != num_buf_.c_str() + num_buf_.size()) {
      fail("bad number");
      return false;
    }
    h_->number(v);
    return true;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    if (pos_ >= s_.size()) {
      fail("unexpected end");
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') {
      std::string_view sv;
      if (!string_token(&sv)) return false;
      h_->string(sv);
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      h_->boolean(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      h_->boolean(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return false;
      h_->null();
      return true;
    }
    return number_token();
  }

  bool object(int depth) {
    ++pos_;
    h_->begin_object();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      h_->end_object();
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        fail("expected key");
        return false;
      }
      std::string_view k;
      if (!string_token(&k)) return false;
      h_->key(k);
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        fail("expected ':'");
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        h_->end_object();
        return true;
      }
      fail("expected ',' or '}'");
      return false;
    }
  }

  bool array(int depth) {
    ++pos_;
    h_->begin_array();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      h_->end_array();
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        h_->end_array();
        return true;
      }
      fail("expected ',' or ']'");
      return false;
    }
  }

  std::string_view s_;
  Handler* h_;
  std::size_t pos_ = 0;
  std::string error_;
  std::string scratch_;
  std::string num_buf_;
};

/// Builds a Value tree from parse events.
class DomAssembler : public Handler {
 public:
  Value root;

  void begin_object() override { open(Value::Type::kObject); }
  void begin_array() override { open(Value::Type::kArray); }
  void end_object() override { stack_.pop_back(); }
  void end_array() override { stack_.pop_back(); }
  void key(std::string_view k) override { pending_key_.assign(k); }
  void string(std::string_view s) override {
    Value& v = place();
    v.type = Value::Type::kString;
    v.str.assign(s);
  }
  void number(double n) override {
    Value& v = place();
    v.type = Value::Type::kNumber;
    v.num = n;
  }
  void boolean(bool b) override {
    Value& v = place();
    v.type = Value::Type::kBool;
    v.b = b;
  }
  void null() override { place(); }

 private:
  /// Slot for the next value: the root, the next array element, or the
  /// member named by the pending key.
  Value& place() {
    if (stack_.empty()) return root;
    Value* parent = stack_.back();
    if (parent->type == Value::Type::kArray) {
      parent->items.emplace_back();
      return parent->items.back();
    }
    parent->members.emplace_back(pending_key_, Value{});
    return parent->members.back().second;
  }
  void open(Value::Type type) {
    Value& v = place();
    v.type = type;
    stack_.push_back(&v);
  }

  std::string pending_key_;
  /// Open containers. Pointers stay valid: a container only grows while
  /// it is the innermost open one, and its ancestors' vectors are not
  /// touched until it closes.
  std::vector<Value*> stack_;
};

const Value& null_value() {
  static const Value v;
  return v;
}

}  // namespace

std::string parse(std::string_view text, Handler* handler) {
  return Parser(text, handler).run();
}

const Value& Value::operator[](std::string_view key) const {
  if (type != Type::kObject) return null_value();
  for (const auto& [k, v] : members) {
    if (k == key) return v;
  }
  return null_value();
}

Value parse_dom(std::string_view text, std::string* error) {
  DomAssembler assembler;
  *error = parse(text, &assembler);
  if (!error->empty()) return Value{};
  return std::move(assembler.root);
}

}  // namespace perfbench::json
