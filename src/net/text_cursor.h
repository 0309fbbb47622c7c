#ifndef FDM_NET_TEXT_CURSOR_H_
#define FDM_NET_TEXT_CURSOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fdm::net {

/// Forward-only tokenizer over one request line, without copying it.
///
/// Each reader skips leading whitespace (the C locale's `isspace` set:
/// space, `\t`, `\n`, `\v`, `\f`, `\r`) and then consumes exactly the
/// characters `std::istream >>` would consume for the same type in the C
/// locale, so a request means the same thing it did when the dispatcher
/// parsed it with streams:
///
///   Word    a maximal run of non-space characters
///   Int64   `[+-]?[0-9]+`, rejected when it overflows the type
///   Int32   same, for int32_t
///   Double  `[+-]?` digits with at most one `.`, then optionally `e`/`E`,
///           `[+-]?` and digits; a token needs a mantissa digit, and an
///           exponent, once started, needs a digit. No `inf`, `nan` or
///           hex. Overflow is rejected; underflow reads as a signed zero.
///
/// Numbers end at the first character their grammar cannot take, with no
/// separator needed: `2-3` reads as 2 then -3, `1.0.5` as 1.0 then 0.5.
/// A failed read consumes its malformed token.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// The next whitespace-delimited token; empty at end of text.
  std::string_view Word();
  bool Int64(int64_t* value);
  bool Int32(int32_t* value);
  bool Double(double* value);

  /// True iff nothing but whitespace remains.
  bool AtEnd();

  /// The unconsumed text, as is.
  std::string_view Rest() const {
    return std::string_view(pos_, static_cast<size_t>(end_ - pos_));
  }

 private:
  void SkipSpace();
  /// Skips whitespace and one optional sign; returns where `from_chars`
  /// should start (the '-', or just past a '+').
  const char* SkipSign();
  template <typename Int>
  bool Integer(Int* value);

  const char* pos_;
  const char* end_;
};

/// Parses `<id> <group> <c0> <c1> ...` to the end of `in`, appending the
/// coordinates to `*coords`. Returns "" on success, else the reason
/// ("requires <id> <group> <coords...>", "requires numeric coordinates");
/// on failure `*coords` is left as it was. Only the syntax is checked;
/// the values (dimension, group range, finiteness) are validated once by
/// `DurableSession::Ingest`, before the WAL append.
std::string_view ParsePointFields(TextCursor& in, int64_t* id, int32_t* group,
                                  std::vector<double>* coords);

/// Appends `value` as `std::ostream <<` prints a double at the default
/// precision (printf `%.6g`): SOLVE's `div=` and STATS' latencies.
void AppendDouble(double value, std::string* out);

}  // namespace fdm::net

#endif  // FDM_NET_TEXT_CURSOR_H_
