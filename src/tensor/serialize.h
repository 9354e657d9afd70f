// Endianness-safe binary serialization and the one on-disk file frame.
//
// The one binary file the repo writes, the fp32 serving checkpoint, is a
// frame around a payload built with these codecs. Every multi-byte
// value is written as explicit little-endian bytes, so an artifact written
// on one machine restores bit-identically on any other regardless of host
// byte order. Readers are bounds-checked and return typed Status instead of
// reading past the end or allocating from a count the bytes cannot hold,
// which turns a truncated, bit-flipped or inflated file into a clean
// IOError instead of undefined behavior or an abort.
//
// Frame layout (28-byte header, then the payload; docs/SERVING.md tables
// the checkpoint's magic, version and payload):
//
//   offset  size  field
//        0     8  magic         format tag, e.g. "SGNNCKPT"
//        8     4  version       u32 format version
//       12     4  flags         u32, format-specific (0 when unused)
//       16     8  payload_size  u64 byte length of the payload
//       24     4  crc32         u32 CRC-32 of the payload bytes
//
// ReadFramedFile rejects, with a typed Status:
//   * missing file, wrong magic, short header ........ IOError
//   * version other than the reader's ................ FailedPrecondition
//   * payload_size not the file's remaining length ... IOError
//   * CRC mismatch .................................... IOError

#ifndef SGNN_TENSOR_SERIALIZE_H_
#define SGNN_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::serialize {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes. Pass the
/// previous return value as `seed` to checksum a stream incrementally;
/// the default seed starts a fresh checksum.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Appends little-endian fixed-width values to a growable byte buffer.
/// Writer methods are named Put* (vs the Reader's bare U32/Str/...) so the
/// void-returning append calls can never be confused with — or flagged by
/// sgnn_lint's discarded-status pass as — their Status-returning Reader
/// counterparts.
class Writer {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v);
  void PutI64(int64_t v);
  /// Float codecs write the IEEE-754 bit pattern as little-endian bytes.
  void PutF32(float v);
  void PutF64(double v);
  /// Length-prefixed (u32) byte string.
  void PutStr(const std::string& s);
  /// Raw bytes, no length prefix.
  void PutBytes(const void* data, size_t size);

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte span. Every accessor
/// returns IOError once the span is exhausted; the cursor never moves past
/// the end, so a short file fails loudly at the first missing field.
class Reader {
 public:
  Reader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  [[nodiscard]] Status U32(uint32_t* v);
  [[nodiscard]] Status U64(uint64_t* v);
  [[nodiscard]] Status I32(int32_t* v);
  [[nodiscard]] Status I64(int64_t* v);
  [[nodiscard]] Status F32(float* v);
  [[nodiscard]] Status F64(double* v);
  /// Reads a u32 length prefix then that many bytes. `max_len` bounds the
  /// allocation so a corrupt length field cannot OOM the process.
  [[nodiscard]] Status Str(std::string* s, uint32_t max_len = 1u << 20);

  /// IOError unless `count` elements of `elem_size` bytes each fit in the
  /// bytes left (a negative count never fits). Every reader that sizes an
  /// allocation from a length field calls this first, so a corrupt count
  /// fails before it can allocate more than the input holds.
  [[nodiscard]] Status CheckCount(int64_t count, size_t elem_size) const;

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

 private:
  [[nodiscard]] Status Take(size_t n, const uint8_t** out);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Appends a Matrix as (i64 rows, i64 cols, f32 row-major data).
void AppendMatrix(const Matrix& m, Writer* w);

/// Reads a Matrix written by AppendMatrix onto `device`. Rejects negative
/// or implausibly large shapes (> `max_elems` elements, or more elements
/// than the bytes left) with IOError.
[[nodiscard]] Status ReadMatrix(Reader* r, Device device, Matrix* out,
                                int64_t max_elems = int64_t{1} << 32);

/// Size of the frame header that precedes every payload.
inline constexpr size_t kFrameHeaderSize = 28;

/// Writes the frame header and `payload` to `path` atomically: both go to
/// `<path>.tmp`, which is renamed over `path` only after a clean close.
/// `magic` must be 8 bytes.
[[nodiscard]] Status WriteFramedFile(const std::string& path,
                                     std::string_view magic, uint32_t version,
                                     uint32_t flags, const Writer& payload);

/// A framed file read back: its header fields and its verified payload.
struct FramedFile {
  uint32_t flags = 0;
  uint32_t crc = 0;  ///< stored CRC-32 of the payload (already verified)
  std::unique_ptr<uint8_t[]> payload;
  size_t payload_size = 0;

  /// A reader over the payload; the bytes stay owned by this FramedFile.
  Reader reader() const { return Reader(payload.get(), payload_size); }
};

/// Reads and validates the frame of `path`: magic, version, declared size
/// against the file length (checked before the payload is allocated) and
/// CRC. The payload is read once, into the returned FramedFile.
[[nodiscard]] Result<FramedFile> ReadFramedFile(const std::string& path,
                                                std::string_view magic,
                                                uint32_t version);

}  // namespace sgnn::serialize

#endif  // SGNN_TENSOR_SERIALIZE_H_
