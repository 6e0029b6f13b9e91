// Shared zero-snprintf text formatting for the hot output paths.
//
// Every exporter and report emitter used to format numbers through its
// own snprintf/ostream calls — per-event, locale-aware, and slow. This
// layer funnels them through std::to_chars (integers, fixed-point and
// %g-style doubles are all correctly rounded and match printf's "C"
// locale output byte for byte), appends into caller-owned strings so
// fragments can be preformatted once and memcpy'd per event, and ships
// a coarse buffered writer so streams see 256 KiB appends instead of
// per-record write calls.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace tempest::fastwrite {

/// Decimal integer append (equivalent to printf "%llu" / "%lld").
void append_u64(std::string& out, std::uint64_t v);
void append_i64(std::string& out, std::int64_t v);

/// Lowercase hex append without a "0x" prefix (printf "%llx").
void append_hex(std::string& out, std::uint64_t v);

/// Fixed-point append, byte-identical to printf("%.*f", decimals, v)
/// in the "C" locale (std::to_chars fixed is specified as exactly
/// that). Non-finite values come out as printf does: inf/-inf/nan.
void append_fixed(std::string& out, double v, int decimals);

/// Shortest-form append matching printf("%.*g", precision, v) — which
/// is also what a default-formatted ostream produces for doubles at
/// precision 6 (the CSV series emitter depends on that equivalence).
void append_general(std::string& out, double v, int precision = 6);

/// JSON number append: the shortest decimal that reads back as exactly
/// `v` (std::to_chars without a precision), so strtod on the other side
/// recovers the same bits. JSON has no literal for NaN or infinity;
/// non-finite values come out as `null`.
void append_json_number(std::string& out, double v);

/// Space-pad `text` to `width` (std::setw semantics: no truncation,
/// left- or right-aligned).
void append_padded(std::string& out, std::string_view text, std::size_t width,
                   bool left_align);

/// Coarse write-behind buffer in front of a std::ostream. Appends are
/// memcpys into a byte buffer flushed in `capacity`-sized writes; an
/// oversized append bypasses the buffer. bytes_written() counts every
/// byte accepted (buffered or flushed) so exporters can report exact
/// output sizes without a final flush-and-tell dance.
class BufferedWriter {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{256} << 10;

  explicit BufferedWriter(std::ostream& out,
                          std::size_t capacity = kDefaultCapacity)
      : out_(&out), capacity_(capacity == 0 ? kDefaultCapacity : capacity) {
    buf_.reserve(capacity_);
  }
  ~BufferedWriter() { flush(); }

  BufferedWriter(const BufferedWriter&) = delete;
  BufferedWriter& operator=(const BufferedWriter&) = delete;

  void append(std::string_view s) {
    total_ += s.size();
    if (buf_.size() + s.size() > capacity_) {
      flush();
      if (s.size() >= capacity_) {  // oversized: straight through
        out_->write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    buf_.append(s.data(), s.size());
  }

  void append(char c) {
    ++total_;
    if (buf_.size() + 1 > capacity_) flush();
    buf_.push_back(c);
  }

  void flush() {
    if (!buf_.empty()) {
      out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      buf_.clear();
    }
  }

  /// Bytes accepted so far (includes bytes still sitting in the buffer).
  std::uint64_t bytes_written() const { return total_; }

 private:
  std::ostream* out_;
  std::size_t capacity_;
  std::string buf_;
  std::uint64_t total_ = 0;
};

}  // namespace tempest::fastwrite
