// Differential test of the request-line tokenizer (net/text_cursor.h)
// against the std::istream parser it replaced. The oracle below is that
// parser as it stood, with one fix: a final token that fails to parse is
// a rejection (the old loop read the eofbit latched by such a token as a
// clean end of line and silently dropped it).

#include "net/text_cursor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fdm::net {
namespace {

std::string OracleParse(const std::string& line, int64_t* id, int32_t* group,
                        std::vector<double>* coords) {
  std::istringstream in(line);
  if (!(in >> *id >> *group)) return "requires <id> <group> <coords...>";
  double c = 0.0;
  while (!(in >> std::ws).eof()) {
    if (!(in >> c)) {
      coords->clear();
      return "requires numeric coordinates";
    }
    coords->push_back(c);
  }
  if (coords->empty()) return "requires numeric coordinates";
  return "";
}

struct Parsed {
  std::string reason;
  int64_t id = 0;
  int32_t group = 0;
  std::vector<double> coords;
};

Parsed ParseNew(const std::string& line) {
  Parsed p;
  TextCursor in(line);
  p.reason = ParsePointFields(in, &p.id, &p.group, &p.coords);
  return p;
}

Parsed ParseOld(const std::string& line) {
  Parsed p;
  p.reason = OracleParse(line, &p.id, &p.group, &p.coords);
  return p;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

void ExpectSame(const std::string& line) {
  const Parsed want = ParseOld(line);
  const Parsed got = ParseNew(line);
  ASSERT_EQ(got.reason, want.reason) << "line: '" << line << "'";
  if (!want.reason.empty()) return;
  ASSERT_EQ(got.id, want.id) << "line: '" << line << "'";
  ASSERT_EQ(got.group, want.group) << "line: '" << line << "'";
  ASSERT_TRUE(SameBits(got.coords, want.coords)) << "line: '" << line << "'";
}

const char* const kTokens[] = {
    "0", "1", "-1", "+1", "+-1", "-+1", "1e", "1e+", "1e-", "1e5", "1E-5",
    "1e-400", "-1e-400", "1e400", "-1e400", "1e-320", "-4.9e-324", "2e-324",
    "inf", "-inf", "nan", "NaN", "infinity", ".", "-.", "+.", "+.5", "-.5",
    "5.", "5.e3", ".e3", "0x10", "0X1p3", "1e5e5", "1.0.5", "2-3", "4+5",
    "007", "-007.500", "00", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "2147483647",
    "2147483648", "-2147483648", "-2147483649", "1.7976931348623157e308",
    "1.7976931348623159e308", "2.2250738585072014e-308", "e5", "E", "-",
    "+", "x", "1x", "3.14159265358979323846264338327950288", "1e+0400",
    "1e-0400", "123456789012345678901234567890", "0.000000000000000000001",
    "\x01", "1,5", "1_0"};

const char* const kSeparators[] = {" ", " ", " ", "  ", "\t", "\v", "\r",
                                   "\f", " \t ", ""};

/// A random number token in one of the forms clients actually send.
std::string RandomNumber(Rng& rng) {
  char buf[64];
  const double x = (rng.NextDouble() - 0.5) *
                   std::pow(10.0, static_cast<double>(rng.NextInt(-30, 30)));
  switch (rng.NextBounded(4)) {
    case 0:
      std::snprintf(buf, sizeof(buf), "%.17g", x);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf), "%g", x);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf), "%.3f", x);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(rng.NextInt(-1000000, 1000000)));
      break;
  }
  return buf;
}

std::string RandomToken(Rng& rng) {
  const uint64_t pick = rng.NextBounded(3);
  if (pick == 0) return RandomNumber(rng);
  if (pick == 1) {
    // A short run of characters from the number grammar and near it.
    static const char kChars[] = "0123456789+-.eE \txn";
    std::string token;
    const uint64_t len = 1 + rng.NextBounded(6);
    for (uint64_t i = 0; i < len; ++i) {
      token.push_back(kChars[rng.NextBounded(sizeof(kChars) - 1)]);
    }
    return token;
  }
  return kTokens[rng.NextBounded(std::size(kTokens))];
}

std::string RandomLine(Rng& rng) {
  std::string line;
  if (rng.NextBounded(8) == 0) line += kSeparators[rng.NextBounded(9)];
  // Mostly well-formed `<id> <group>` heads, so the coordinate grammar
  // gets most of the coverage.
  if (rng.NextBounded(4) != 0) {
    line += std::to_string(rng.NextInt(-5, 1000000));
    line += ' ';
    line += std::to_string(rng.NextInt(-1, 20));
  } else {
    line += RandomToken(rng);
    line += kSeparators[rng.NextBounded(std::size(kSeparators))];
    line += RandomToken(rng);
  }
  const uint64_t fields = rng.NextBounded(6);
  for (uint64_t i = 0; i < fields; ++i) {
    line += kSeparators[rng.NextBounded(std::size(kSeparators))];
    line += rng.NextBounded(2) == 0 ? RandomNumber(rng) : RandomToken(rng);
  }
  if (rng.NextBounded(4) == 0) line += kSeparators[rng.NextBounded(9)];
  return line;
}

TEST(RequestTextTest, PointLinesMatchStreamParserOnFuzzedLines) {
  Rng rng(20221014);
  size_t accepted = 0;
  constexpr int kLines = 1'000'000;
  for (int i = 0; i < kLines; ++i) {
    const std::string line = RandomLine(rng);
    ExpectSame(line);
    if (HasFatalFailure()) return;
    accepted += ParseNew(line).reason.empty() ? 1 : 0;
  }
  // Both outcomes must be well represented, or the comparison is idle.
  EXPECT_GT(accepted, kLines / 10);
  EXPECT_LT(accepted, kLines * 9 / 10);
}

TEST(RequestTextTest, EveryAlphabetTokenInEveryPosition) {
  for (const char* token : kTokens) {
    for (const char* other : {"2", "-3.5", "x"}) {
      ExpectSame(std::string("7 1 ") + token);
      ExpectSame(std::string("7 1 ") + token + " " + other);
      ExpectSame(std::string("7 1 ") + other + " " + token);
      ExpectSame(std::string("7 1 ") + token + other);
      ExpectSame(std::string(token) + " 1 2");
      ExpectSame(std::string("7 ") + token + " 2");
      ExpectSame(std::string(token) + " " + other + " 1 2");
    }
  }
}

TEST(RequestTextTest, MalformedLastTokenIsRejected) {
  for (const char* line : {"1 0 1.0 2.0 3e", "1 0 1.0 -.", "1 0 2 5e+",
                           "1 0 2 1e400", "1 0 2 3e\r", "1 0 +"}) {
    EXPECT_EQ(ParseNew(line).reason, "requires numeric coordinates") << line;
  }
}

TEST(RequestTextTest, UnderflowReadsAsSignedZeroAndSubnormalsAreExact) {
  const Parsed neg = ParseNew("1 0 -1e-400 1e-400 1e-320 -2e-324");
  ASSERT_EQ(neg.reason, "");
  ASSERT_EQ(neg.coords.size(), 4u);
  EXPECT_EQ(neg.coords[0], 0.0);
  EXPECT_TRUE(std::signbit(neg.coords[0]));
  EXPECT_EQ(neg.coords[1], 0.0);
  EXPECT_FALSE(std::signbit(neg.coords[1]));
  EXPECT_EQ(neg.coords[2], std::strtod("1e-320", nullptr));
  EXPECT_EQ(std::fpclassify(neg.coords[2]), FP_SUBNORMAL);
  EXPECT_TRUE(std::signbit(neg.coords[3]));
  ExpectSame("1 0 -1e-400 1e-400 1e-320 -2e-324");
}

TEST(RequestTextTest, NumbersNeedNoSeparator) {
  const Parsed p = ParseNew("5 2 2-3 4+5 1.0.5 1e5e5");
  EXPECT_EQ(p.reason, "requires numeric coordinates");  // "e5" is not one
  const Parsed q = ParseNew("5 2 2-3 4+5 1.0.5");
  ASSERT_EQ(q.reason, "");
  EXPECT_EQ(q.coords, (std::vector<double>{2, -3, 4, 5, 1.0, 0.5}));
}

TEST(RequestTextTest, IdAndGroupLimits) {
  EXPECT_EQ(ParseNew("9223372036854775807 2147483647 1").reason, "");
  EXPECT_EQ(ParseNew("-9223372036854775808 -2147483648 1").reason, "");
  EXPECT_NE(ParseNew("9223372036854775808 0 1").reason, "");
  EXPECT_NE(ParseNew("1 2147483648 1").reason, "");
  EXPECT_NE(ParseNew("1 -2147483649 1").reason, "");
  ExpectSame("+7 +3 1");
  ExpectSame("007 -0 1");
}

/// The command-line readers (`Word`, `Int64`, `Int32`, `Double`, `AtEnd`)
/// against `>>` of the same types, read by read, on fuzzed lines: each
/// read must agree on success and value until the first failure.
TEST(RequestTextTest, ReadersMatchStreamExtraction) {
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    std::string line;
    const uint64_t fields = rng.NextBounded(5);
    for (uint64_t f = 0; f < fields; ++f) {
      line += kSeparators[rng.NextBounded(std::size(kSeparators))];
      line += RandomToken(rng);
    }
    std::istringstream oracle(line);
    TextCursor cursor(line);
    for (uint64_t read = 0; read < 4; ++read) {
      bool want_ok = false;
      bool got_ok = false;
      switch (rng.NextBounded(4)) {
        case 0: {
          std::string want;
          want_ok = static_cast<bool>(oracle >> want);
          const std::string_view got = cursor.Word();
          got_ok = !got.empty();
          if (want_ok && got_ok) {
            ASSERT_EQ(got, want) << line;
          }
          break;
        }
        case 1: {
          int64_t want = 0, got = 0;
          want_ok = static_cast<bool>(oracle >> want);
          got_ok = cursor.Int64(&got);
          if (want_ok && got_ok) {
            ASSERT_EQ(got, want) << line;
          }
          break;
        }
        case 2: {
          int32_t want = 0, got = 0;
          want_ok = static_cast<bool>(oracle >> want);
          got_ok = cursor.Int32(&got);
          if (want_ok && got_ok) {
            ASSERT_EQ(got, want) << line;
          }
          break;
        }
        default: {
          double want = 0, got = 0;
          want_ok = static_cast<bool>(oracle >> want);
          got_ok = cursor.Double(&got);
          if (want_ok && got_ok) {
            ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << line;
          }
          break;
        }
      }
      ASSERT_EQ(got_ok, want_ok) << "line: '" << line << "'";
      if (!want_ok) break;
      // What is left must agree too, down to the whitespace.
      std::string want_rest;
      const std::streampos at = oracle.tellg();
      if (at >= 0) want_rest = line.substr(static_cast<size_t>(at));
      ASSERT_EQ(cursor.Rest(), want_rest) << "line: '" << line << "'";
      oracle.clear();
      std::string left;
      ASSERT_EQ(cursor.AtEnd(), !(std::istringstream(want_rest) >> left));
    }
  }
}

TEST(RequestTextTest, RestKeepsTheUnreadText) {
  TextCursor in("  CREATE  s1   algo=sfdm2 dim=2 \t");
  EXPECT_EQ(in.Word(), "CREATE");
  EXPECT_EQ(in.Word(), "s1");
  EXPECT_EQ(in.Rest(), "   algo=sfdm2 dim=2 \t");
  EXPECT_FALSE(in.AtEnd());
  EXPECT_EQ(in.Word(), "algo=sfdm2");
  EXPECT_EQ(in.Word(), "dim=2");
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(in.Word(), "");
}

std::string StreamFormat(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string CursorFormat(double value) {
  std::string out;
  AppendDouble(value, &out);
  return out;
}

TEST(RequestTextTest, DoubleFormattingMatchesStreamInsertion) {
  const double kSpecial[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-320,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             1e300,
                             -1e300,
                             1e-300,
                             -1e-300,
                             0.1,
                             123456.5,
                             999999.5,
                             1234567.0,
                             0.0001,
                             0.00001};
  for (const double v : kSpecial) {
    EXPECT_EQ(CursorFormat(v), StreamFormat(v)) << std::hexfloat << v;
  }
  Rng rng(99);
  for (int i = 0; i < 200'000; ++i) {
    // Half raw bit patterns (every exponent, NaN payloads, subnormals),
    // half values in the range diversities take.
    double v = 0.0;
    if (i % 2 == 0) {
      const uint64_t bits = rng.NextUint64();
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      v = rng.NextDouble() *
          std::pow(10.0, static_cast<double>(rng.NextInt(-8, 8)));
    }
    ASSERT_EQ(CursorFormat(v), StreamFormat(v)) << std::hexfloat << v;
  }
}

}  // namespace
}  // namespace fdm::net
