// The benchmark's own JSON reader. It shares no code with the program
// under test, so the outputs it checks are read independently of the
// writers that produced them.
//
// Two layers: a streaming (SAX) parser for the large timeline exports,
// which are checked without materialising them, and a small DOM built
// on top of it for the profile, diff and collector responses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::json {

/// Receives the parse events in document order. Object keys arrive
/// through key() immediately before their value.
class Handler {
 public:
  virtual ~Handler() = default;
  virtual void begin_object() {}
  virtual void end_object() {}
  virtual void begin_array() {}
  virtual void end_array() {}
  virtual void key(std::string_view /*k*/) {}
  virtual void string(std::string_view /*s*/) {}
  virtual void number(double /*v*/) {}
  virtual void boolean(bool /*b*/) {}
  virtual void null() {}
};

/// Parse one JSON document (trailing whitespace allowed). Returns ""
/// on success, else a message naming the byte offset.
std::string parse(std::string_view text, Handler* handler);

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> items;                      ///< array elements
  std::vector<std::pair<std::string, Value>> members;  ///< object, in order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  /// Member lookup; a shared null value when absent or not an object.
  const Value& operator[](std::string_view key) const;
  double number_or(double fallback) const {
    return type == Type::kNumber ? num : fallback;
  }
};

/// Parse into a DOM; `error` receives the parse error ("" on success).
Value parse_dom(std::string_view text, std::string* error);

}  // namespace perfbench::json
