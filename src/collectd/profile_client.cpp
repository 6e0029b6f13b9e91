#include "collectd/profile_client.hpp"

#include <cstdlib>

#include "collectd/net.hpp"

namespace tempest::collectd {
namespace {

/// Cursor over the /profile JSON. The query plane emits a fixed shape
/// (see Impl::handle_profile), so a tolerant scanner beats a general
/// parser: find each field by key, skip what we don't know.
struct Scanner {
  const std::string& s;
  std::size_t pos = 0;

  bool find(const char* key, std::size_t limit) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = s.find(needle, pos);
    if (at == std::string::npos || at >= limit) return false;
    pos = at + needle.size();
    return true;
  }

  double number() {
    char* end = nullptr;
    const double v = std::strtod(s.c_str() + pos, &end);
    if (end != nullptr) pos = static_cast<std::size_t>(end - s.c_str());
    return v;
  }

  /// Decode the JSON string starting at pos (expects the opening
  /// quote); handles the escapes append_json_string produces.
  bool string(std::string* out) {
    if (pos >= s.size() || s[pos] != '"') return false;
    ++pos;
    out->clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= s.size()) return false;
      const char esc = s[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > s.size()) return false;
          const unsigned long cp = std::strtoul(s.substr(pos, 4).c_str(),
                                                nullptr, 16);
          pos += 4;
          out->push_back(static_cast<char>(cp & 0xFF));
          break;
        }
        default: out->push_back(esc); break;
      }
    }
    return false;
  }
};

/// Index of the '}' closing the object that opens at `open`, skipping
/// quoted strings (demangled names such as `main::{lambda()#1}` carry
/// braces) and nested objects; npos when unterminated.
std::size_t object_end(const std::string& s, std::size_t open) {
  std::size_t depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // the escaped character cannot end the string
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

}  // namespace

Result<FleetProfileView> parse_fleet_profile(const std::string& json) {
  FleetProfileView view;
  Scanner sc{json};
  if (sc.find("sessions_folded", json.size())) {
    view.sessions_folded = static_cast<std::uint64_t>(sc.number());
  }
  Scanner fns{json};
  if (!fns.find("functions", json.size())) {
    return Result<FleetProfileView>::error("/profile body has no functions array");
  }
  std::size_t pos = json.find('[', fns.pos);
  if (pos == std::string::npos) {
    return Result<FleetProfileView>::error("/profile functions array malformed");
  }
  ++pos;
  while (pos < json.size()) {
    const std::size_t obj = json.find_first_of("{]", pos);
    if (obj == std::string::npos || json[obj] == ']') break;
    const std::size_t end = object_end(json, obj);
    if (end == std::string::npos) {
      return Result<FleetProfileView>::error("/profile entry unterminated");
    }
    FleetProfileEntry e;
    Scanner field{json, obj};
    if (field.find("name", end) && !field.string(&e.name)) {
      return Result<FleetProfileView>::error("/profile entry name malformed");
    }
    Scanner calls{json, obj};
    if (calls.find("calls", end)) e.calls = static_cast<std::uint64_t>(calls.number());
    Scanner total{json, obj};
    if (total.find("total_time_s", end)) e.total_time_s = total.number();
    Scanner sess{json, obj};
    if (sess.find("sessions", end)) e.sessions = static_cast<std::uint64_t>(sess.number());
    Scanner mean{json, obj};
    if (mean.find("time_mean_s", end)) e.time_mean_s = mean.number();
    Scanner var{json, obj};
    if (var.find("time_var_s2", end)) e.time_var_s2 = var.number();
    view.functions.push_back(std::move(e));
    pos = end + 1;
  }
  return view;
}

Result<FleetProfileView> fetch_fleet_profile(const std::string& endpoint,
                                             std::size_t top,
                                             double timeout_s) {
  std::string target = "/profile";
  if (top > 0) target += "?top=" + std::to_string(top);
  auto body = http_get(endpoint, target, timeout_s);
  if (!body.is_ok()) return Result<FleetProfileView>::error(body.message());
  return parse_fleet_profile(body.value());
}

}  // namespace tempest::collectd
