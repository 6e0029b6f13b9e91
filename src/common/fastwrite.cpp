#include "common/fastwrite.hpp"

#include <charconv>
#include <cmath>

namespace tempest::fastwrite {
namespace {

// Worst cases: -1.8e308 at %.9f is ~320 digits; give fixed-point room
// for the full double range at sane precisions plus slack.
constexpr std::size_t kNumBuf = 512;

template <typename T>
void append_int(std::string& out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

}  // namespace

void append_u64(std::string& out, std::uint64_t v) { append_int(out, v); }
void append_i64(std::string& out, std::int64_t v) { append_int(out, v); }

void append_hex(std::string& out, std::uint64_t v) {
  char buf[17];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void append_fixed(std::string& out, double v, int decimals) {
  // printf prints non-finite values without the precision; to_chars
  // fixed does the same ("inf"/"-inf"/"nan"), but make the contract
  // explicit rather than lean on the corner of the spec.
  if (!std::isfinite(v)) {
    if (std::isnan(v)) {
      out += std::signbit(v) ? "-nan" : "nan";
    } else {
      out += std::signbit(v) ? "-inf" : "inf";
    }
    return;
  }
  char buf[kNumBuf];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::fixed, decimals);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void append_general(std::string& out, double v, int precision) {
  if (!std::isfinite(v)) {
    if (std::isnan(v)) {
      out += std::signbit(v) ? "-nan" : "nan";
    } else {
      out += std::signbit(v) ? "-inf" : "inf";
    }
    return;
  }
  char buf[kNumBuf];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, precision);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[kNumBuf];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void append_padded(std::string& out, std::string_view text, std::size_t width,
                   bool left_align) {
  if (!left_align && text.size() < width) {
    out.append(width - text.size(), ' ');
  }
  out.append(text.data(), text.size());
  if (left_align && text.size() < width) {
    out.append(width - text.size(), ' ');
  }
}

}  // namespace tempest::fastwrite
