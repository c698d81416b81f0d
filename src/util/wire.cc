#include "util/wire.h"

#include <cstring>

#include "util/logging.h"

namespace kcore::util {

std::size_t VarintSize(std::uint64_t x) {
  std::size_t n = 1;
  while (x >= 0x80) {
    x >>= 7;
    ++n;
  }
  return n;
}

void WireWriter::Varint(std::uint64_t x) {
  while (x >= 0x80) {
    KCORE_CHECK_MSG(p_ < end_, "WireWriter overflow: varint past a "
                                   << capacity() << "-byte region");
    *p_++ = static_cast<std::uint8_t>(x) | 0x80;
    x >>= 7;
  }
  KCORE_CHECK_MSG(p_ < end_, "WireWriter overflow: varint past a "
                                 << capacity() << "-byte region");
  *p_++ = static_cast<std::uint8_t>(x);
}

void WireWriter::Fixed32(std::uint32_t bits) {
  KCORE_CHECK_MSG(end_ - p_ >= 4, "WireWriter overflow: fixed32 past a "
                                      << capacity() << "-byte region");
  for (int i = 0; i < 4; ++i) {
    *p_++ = static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

void WireWriter::Fixed64(std::uint64_t bits) {
  KCORE_CHECK_MSG(end_ - p_ >= 8, "WireWriter overflow: fixed64 past a "
                                      << capacity() << "-byte region");
  for (int i = 0; i < 8; ++i) {
    *p_++ = static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

void WireWriter::Double(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &d, sizeof(bits));
  Fixed64(bits);
}

void WireAppender::Varint(std::uint64_t x) {
  while (x >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(x));
}

void WireAppender::Fixed32(std::uint32_t bits) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void WireAppender::Fixed64(std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void WireAppender::Double(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &d, sizeof(bits));
  Fixed64(bits);
}

void WireAppender::Raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), p, p + len);
}

bool WireReader::TryVarint(std::uint64_t* out) {
  if (failed_) return false;
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (p_ == end_) {
      failed_ = true;  // truncated mid-varint
      return false;
    }
    const std::uint8_t b = *p_++;
    // Byte 9 holds bits 63..69 of which only bit 63 exists: any higher
    // payload bit (or a continuation into an 11th byte) overflows 64 bits.
    if (i == kMaxVarintBytes - 1 && (b & 0xfe) != 0) {
      failed_ = true;
      return false;
    }
    x |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      *out = x;
      return true;
    }
  }
  failed_ = true;
  return false;
}

bool WireReader::TryFixed32(std::uint32_t* out) {
  if (failed_ || end_ - p_ < 4) {
    failed_ = true;
    return false;
  }
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    bits |= static_cast<std::uint32_t>(*p_++) << (8 * i);
  }
  *out = bits;
  return true;
}

bool WireReader::TryFixed64(std::uint64_t* out) {
  if (failed_ || end_ - p_ < 8) {
    failed_ = true;
    return false;
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(*p_++) << (8 * i);
  }
  *out = bits;
  return true;
}

bool WireReader::TryRaw(void* out, std::size_t len) {
  if (failed_ || static_cast<std::size_t>(end_ - p_) < len) {
    failed_ = true;
    return false;
  }
  if (len > 0) std::memcpy(out, p_, len);  // out may be null when len == 0
  p_ += len;
  return true;
}

bool WireReader::TryDouble(double* out) {
  std::uint64_t bits = 0;
  if (!TryFixed64(&bits)) return false;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

std::uint64_t WireReader::Varint() {
  std::uint64_t x = 0;
  KCORE_CHECK_MSG(TryVarint(&x),
                  "malformed wire buffer: truncated or overlong varint");
  return x;
}

std::uint32_t WireReader::Fixed32() {
  std::uint32_t bits = 0;
  KCORE_CHECK_MSG(TryFixed32(&bits),
                  "malformed wire buffer: truncated fixed32");
  return bits;
}

std::uint64_t WireReader::Fixed64() {
  std::uint64_t bits = 0;
  KCORE_CHECK_MSG(TryFixed64(&bits),
                  "malformed wire buffer: truncated fixed64");
  return bits;
}

double WireReader::Double() {
  double d = 0.0;
  KCORE_CHECK_MSG(TryDouble(&d),
                  "malformed wire buffer: truncated fixed64");
  return d;
}

}  // namespace kcore::util
