#include "net/text_cursor.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace fdm::net {
namespace {

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsSign(char c) { return c == '+' || c == '-'; }

}  // namespace

void TextCursor::SkipSpace() {
  while (pos_ < end_ && IsSpace(*pos_)) ++pos_;
}

const char* TextCursor::SkipSign() {
  SkipSpace();
  if (pos_ == end_ || !IsSign(*pos_)) return pos_;
  // `from_chars` takes a leading '-' but not a '+'.
  const char* sign = pos_++;
  return *sign == '-' ? sign : pos_;
}

bool TextCursor::AtEnd() {
  SkipSpace();
  return pos_ == end_;
}

std::string_view TextCursor::Word() {
  SkipSpace();
  const char* begin = pos_;
  while (pos_ < end_ && !IsSpace(*pos_)) ++pos_;
  return std::string_view(begin, static_cast<size_t>(pos_ - begin));
}

template <typename Int>
bool TextCursor::Integer(Int* value) {
  const char* first = SkipSign();
  const char* digits = pos_;
  while (pos_ < end_ && IsDigit(*pos_)) ++pos_;
  if (pos_ == digits) return false;
  // Only digits follow the sign, so the conversion stops exactly at pos_
  // unless the value overflows Int.
  return std::from_chars(first, pos_, *value).ec == std::errc();
}

bool TextCursor::Int64(int64_t* value) { return Integer(value); }
bool TextCursor::Int32(int32_t* value) { return Integer(value); }

bool TextCursor::Double(double* value) {
  const char* first = SkipSign();
  // Fast path: a token that starts like a number (so not `inf`/`nan`,
  // which `from_chars` would take) ends where `from_chars` stops, unless
  // an `e`/`E` follows — `>>` would go on to read that as a malformed
  // exponent, so the scan below settles it.
  if (pos_ < end_ && (IsDigit(*pos_) || *pos_ == '.')) {
    const auto [end, ec] =
        std::from_chars(first, end_, *value, std::chars_format::general);
    if (ec == std::errc() && (end == end_ || (*end != 'e' && *end != 'E'))) {
      pos_ = end;
      return true;
    }
  }
  bool mantissa = false;
  bool point = false;
  bool exponent = false;
  while (pos_ < end_) {
    const char c = *pos_;
    if (IsDigit(c)) {
      mantissa = true;
    } else if (c == '.' && !point && !exponent) {
      point = true;
    } else if ((c == 'e' || c == 'E') && mantissa && !exponent) {
      exponent = true;
      if (pos_ + 1 < end_ && IsSign(pos_[1])) ++pos_;
    } else {
      break;
    }
    ++pos_;
  }
  // The scan above takes what `>>` takes; the token is a number iff the
  // conversion consumes all of it (it leaves "1e", "1e+", "." and "+"
  // partly or wholly unread).
  const auto [end, ec] =
      std::from_chars(first, pos_, *value, std::chars_format::general);
  if (end != pos_ || first == pos_) return false;
  if (ec == std::errc()) return true;
  if (ec != std::errc::result_out_of_range) return false;
  // Out of range: overflow is an error, underflow is the signed zero
  // `strtod` (and so `>>`) returns. Re-parse this one token to tell them
  // apart; it is NUL-terminated in its own copy.
  const std::string token(first, pos_);
  const double parsed = std::strtod(token.c_str(), nullptr);
  if (std::isinf(parsed)) return false;
  *value = parsed;
  return true;
}

std::string_view ParsePointFields(TextCursor& in, int64_t* id, int32_t* group,
                                  std::vector<double>* coords) {
  if (!in.Int64(id) || !in.Int32(group)) {
    return "requires <id> <group> <coords...>";
  }
  const size_t start = coords->size();
  double c = 0.0;
  while (!in.AtEnd()) {
    // A token that is not a number rejects the point, wherever it sits on
    // the line: a malformed point is never half-parsed.
    if (!in.Double(&c)) {
      coords->resize(start);
      return "requires numeric coordinates";
    }
    coords->push_back(c);
  }
  if (coords->size() == start) return "requires numeric coordinates";
  return {};
}

void AppendDouble(double value, std::string* out) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 6);
  out->append(buf, result.ptr);
}

}  // namespace fdm::net
