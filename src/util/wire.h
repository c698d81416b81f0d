// Wire encoding for message-passing transports: LEB128-style varints plus
// fixed-width 64-bit fields, over caller-owned byte buffers.
//
// The serializing transports (distsim/transport.h,
// distsim/process_transport.h) pack every staged message into contiguous
// per-(src, dst) partition buffers before the alltoallv-style exchange,
// and the process backend's socketpair frames (count/displacement rows,
// peer length headers) are fixed64 rows of this codec too — the full
// byte layouts are tabulated in docs/TRANSPORTS.md. The format is
// deliberately boring and portable:
//
//   * Varint: unsigned little-endian base-128 (7 payload bits per byte,
//     MSB = continuation), at most kMaxVarintBytes bytes. The decoder
//     rejects truncated input and encodings that overflow 64 bits, so a
//     corrupted buffer surfaces as an error instead of a wrong value.
//   * Fixed32: exactly 4 bytes, little-endian — node-id records in the
//     binary graph format (graph/binio.h) where 8 bytes per id would
//     double the file size for no information.
//   * Fixed64 / Double: exactly 8 bytes, little-endian byte order
//     regardless of host endianness — two machines exchanging buffers
//     decode identical bit patterns, which the simulator's bit-determinism
//     contract requires.
//
// Writers come in two flavors: WireWriter operates on a pre-sized region
// (the transport computes exact byte counts in its census pass, so
// encoding never reallocates; overrunning the region is a KCORE_CHECK
// failure, not a silent corruption), and WireAppender grows a
// caller-owned std::vector for frames whose length is only known after
// encoding (the per-rank compute control frames of
// distsim/process_transport.cc). Readers come in checked (KCORE_CHECK on
// malformed input — for internal buffers where corruption is a bug) and
// Try* (bool-return — for callers that can recover) flavors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kcore::util {

// Longest valid varint: ceil(64 / 7) bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;

// Exact number of bytes Varint(x) occupies on the wire (1..10).
std::size_t VarintSize(std::uint64_t x);

// Encodes into the caller-provided region [begin, end). Every Put checks
// the region has room; written() reports the cursor for callers that
// interleave several writers over one buffer.
class WireWriter {
 public:
  WireWriter(std::uint8_t* begin, std::uint8_t* end)
      : begin_(begin), p_(begin), end_(end) {}

  void Varint(std::uint64_t x);
  void Fixed32(std::uint32_t bits);
  void Fixed64(std::uint64_t bits);
  // Fixed64 of the IEEE-754 bit pattern (8 bytes, little-endian).
  void Double(double d);

  std::size_t written() const { return static_cast<std::size_t>(p_ - begin_); }
  std::size_t capacity() const {
    return static_cast<std::size_t>(end_ - begin_);
  }

 private:
  std::uint8_t* begin_;
  std::uint8_t* p_;
  std::uint8_t* end_;
};

// Appends the same encodings to a growing byte vector — for frames whose
// exact size is cheaper to discover by encoding than to precompute. The
// vector is caller-owned (so scratch persists across frames); Appender
// writes start at the vector's current end.
class WireAppender {
 public:
  explicit WireAppender(std::vector<std::uint8_t>& out) : out_(out) {}

  void Varint(std::uint64_t x);
  void Fixed32(std::uint32_t bits);
  void Fixed64(std::uint64_t bits);
  void Double(double d);
  // Appends `len` raw bytes (a blob whose length a preceding varint
  // carries).
  void Raw(const void* data, std::size_t len);

  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

// Decodes from [data, data + size). Try* getters return false — and mark
// the reader failed — on truncated or overlong input without touching
// *out; the checked getters KCORE_CHECK instead (internal buffers only).
// Once failed, every later read fails too, so a decode loop can check
// failed() once at the end instead of after every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  bool TryVarint(std::uint64_t* out);
  bool TryFixed32(std::uint32_t* out);
  bool TryFixed64(std::uint64_t* out);
  bool TryDouble(double* out);
  // Copies `len` raw bytes (an embedded string/blob whose length came
  // from a preceding varint) into out.
  bool TryRaw(void* out, std::size_t len);

  // Checked getters: KCORE_CHECK on truncated/overlong input. For
  // internal buffers (transport frames, packed segments) where a decode
  // failure is a bug, not a recoverable condition.
  std::uint64_t Varint();
  std::uint32_t Fixed32();
  std::uint64_t Fixed64();
  double Double();

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool failed() const { return failed_; }
  // Marks the reader failed: for a decoder that reads a well-formed
  // field whose value it must reject (a length that disagrees with the
  // receiver's own state).
  void Fail() { failed_ = true; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

}  // namespace kcore::util
