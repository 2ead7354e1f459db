// Checkpoint serialization primitives on untrusted input: a corrupt
// length prefix must fail with the pointed truncation error after
// allocating about what the stream holds, not what the length claims.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace dfsim::ser {
namespace {

/// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
long max_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// A 16-byte stream: a 2^31 length prefix, then one 8-byte payload word.
std::istringstream corrupt_length_stream() {
  std::ostringstream os;
  write_u64(os, 1ULL << 31);
  write_u64(os, 0x0123456789abcdefULL);
  return std::istringstream(os.str());
}

/// Runs `read` on the corrupt stream, expecting the pointed throw, and
/// returns how far the peak RSS rose meanwhile, in MiB.
template <typename Read>
long rss_rise_mib_of_corrupt_read(Read read) {
  std::istringstream is = corrupt_length_stream();
  const long before = max_rss_kib();
  try {
    read(is);
    ADD_FAILURE() << "a 2^31 length over a 16-byte stream was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint truncated"),
              std::string::npos)
        << e.what();
  }
  return (max_rss_kib() - before) / 1024;
}

// The RSS tests come first: ru_maxrss is a process-wide high-water mark.
TEST(SerializeTest, CorruptVectorLengthFailsWithoutHugeAllocation) {
  // The old read zero-filled a 16 GiB vector before the first short read.
  const auto read = [](std::istream& is) { read_u64_vec(is, "counters"); };
  EXPECT_LT(rss_rise_mib_of_corrupt_read(read), 64);
}

TEST(SerializeTest, CorruptStringLengthFailsWithoutHugeAllocation) {
  const auto read = [](std::istream& is) { read_string(is, "label"); };
  EXPECT_LT(rss_rise_mib_of_corrupt_read(read), 64);
}

TEST(SerializeTest, ImplausibleLengthIsRejectedBeforeReading) {
  std::ostringstream os;
  write_u64(os, (1ULL << 32) + 1);
  std::istringstream is(os.str());
  EXPECT_THROW(read_u64_vec(is, "counters"), std::runtime_error);
}

TEST(SerializeTest, PayloadsLargerThanOneChunkRoundTrip) {
  // Lengths straddling the read chunk on both sides of its boundary.
  constexpr std::size_t kChunk = kReadChunkBytes;
  const std::size_t sizes[] = {0, 1, kChunk - 1, kChunk, 3 * kChunk + 17};
  for (const std::size_t n : sizes) {
    SCOPED_TRACE(n);
    std::string text(n, '\0');
    for (std::size_t i = 0; i < n; ++i) text[i] = static_cast<char>(i * 31);
    std::vector<std::uint64_t> words(n / 4);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] = i * i + 7;

    std::ostringstream os;
    write_string(os, text);
    write_u64_vec(os, words);
    std::istringstream is(os.str());
    EXPECT_EQ(read_string(is, "text"), text);
    EXPECT_EQ(read_u64_vec(is, "words"), words);
  }
}

}  // namespace
}  // namespace dfsim::ser
