#include "tensor/serialize.h"

#include <array>
#include <cstdio>
#include <cstring>

namespace sgnn::serialize {

namespace {

/// Reflected CRC-32 lookup table, built once from the IEEE polynomial.
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto& table = CrcTable();
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Writer::PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
void Writer::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void Writer::PutF32(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void Writer::PutF64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutStr(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void Writer::PutBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

Status Reader::Take(size_t n, const uint8_t** out) {
  if (size_ - pos_ < n) {
    return Status::IOError("truncated input: need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(pos_) +
                           ", have " + std::to_string(size_ - pos_));
  }
  *out = data_ + pos_;
  pos_ += n;
  return Status::OK();
}

Status Reader::U32(uint32_t* v) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(4, &p));
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return Status::OK();
}

Status Reader::U64(uint64_t* v) {
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(8, &p));
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return Status::OK();
}

Status Reader::I32(int32_t* v) {
  uint32_t u = 0;
  SGNN_RETURN_IF_ERROR(U32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status Reader::I64(int64_t* v) {
  uint64_t u = 0;
  SGNN_RETURN_IF_ERROR(U64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status Reader::F32(float* v) {
  uint32_t bits = 0;
  SGNN_RETURN_IF_ERROR(U32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::F64(double* v) {
  uint64_t bits = 0;
  SGNN_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::Str(std::string* s, uint32_t max_len) {
  uint32_t len = 0;
  SGNN_RETURN_IF_ERROR(U32(&len));
  if (len > max_len) {
    return Status::IOError("string length " + std::to_string(len) +
                           " exceeds limit " + std::to_string(max_len));
  }
  const uint8_t* p = nullptr;
  SGNN_RETURN_IF_ERROR(Take(len, &p));
  s->assign(reinterpret_cast<const char*>(p), len);
  return Status::OK();
}

Status Reader::CheckCount(int64_t count, size_t elem_size) const {
  if (count < 0 || static_cast<uint64_t>(count) > remaining() / elem_size) {
    return Status::IOError("length field claims " + std::to_string(count) +
                           " elements of " + std::to_string(elem_size) +
                           " bytes at offset " + std::to_string(pos_) +
                           ", only " + std::to_string(remaining()) +
                           " bytes left");
  }
  return Status::OK();
}

void AppendMatrix(const Matrix& m, Writer* w) {
  w->PutI64(m.rows());
  w->PutI64(m.cols());
  const float* d = m.data();
  for (int64_t i = 0; i < m.size(); ++i) w->PutF32(d[i]);
}

Status ReadMatrix(Reader* r, Device device, Matrix* out, int64_t max_elems) {
  int64_t rows = 0, cols = 0;
  SGNN_RETURN_IF_ERROR(r->I64(&rows));
  SGNN_RETURN_IF_ERROR(r->I64(&cols));
  if (rows < 0 || cols < 0 || (cols > 0 && rows > max_elems / cols)) {
    return Status::IOError("corrupt matrix shape " + std::to_string(rows) +
                           "x" + std::to_string(cols));
  }
  SGNN_RETURN_IF_ERROR(r->CheckCount(rows * cols, sizeof(float)));
  Matrix m(rows, cols, device);
  float* d = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    SGNN_RETURN_IF_ERROR(r->F32(&d[i]));
  }
  *out = std::move(m);
  return Status::OK();
}

Status WriteFramedFile(const std::string& path, std::string_view magic,
                       uint32_t version, uint32_t flags,
                       const Writer& payload) {
  SGNN_CHECK(magic.size() == 8, "frame magic must be 8 bytes");
  Writer header;
  header.PutBytes(magic.data(), magic.size());
  header.PutU32(version);
  header.PutU32(flags);
  header.PutU64(payload.size());
  header.PutU32(Crc32(payload.buffer().data(), payload.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  bool ok = std::fwrite(header.buffer().data(), 1, header.size(), f) ==
            header.size();
  ok = ok && std::fwrite(payload.buffer().data(), 1, payload.size(), f) ==
                 payload.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<FramedFile> ReadFramedFile(const std::string& path,
                                  std::string_view magic, uint32_t version) {
  SGNN_CHECK(magic.size() == 8, "frame magic must be 8 bytes");
  const std::unique_ptr<std::FILE, FileCloser> f(
      std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint8_t header[kFrameHeaderSize];
  if (std::fread(header, 1, sizeof header, f.get()) != sizeof header ||
      std::memcmp(header, magic.data(), magic.size()) != 0) {
    return Status::IOError(path + " is not a " + std::string(magic) +
                           " file");
  }
  Reader r(header + magic.size(), sizeof header - magic.size());
  uint32_t file_version = 0;
  uint64_t payload_size = 0;
  FramedFile file;
  SGNN_RETURN_IF_ERROR(r.U32(&file_version));
  SGNN_RETURN_IF_ERROR(r.U32(&file.flags));
  SGNN_RETURN_IF_ERROR(r.U64(&payload_size));
  SGNN_RETURN_IF_ERROR(r.U32(&file.crc));
  if (file_version != version) {
    return Status::FailedPrecondition(
        "unsupported " + std::string(magic) + " version " +
        std::to_string(file_version) + " in " + path +
        " (this reader expects version " + std::to_string(version) + ")");
  }
  // The declared size decides the allocation, so it must be exactly the
  // bytes the file still holds before anything is allocated.
  const long file_size =
      std::fseek(f.get(), 0, SEEK_END) == 0 ? std::ftell(f.get()) : -1;
  if (file_size < 0 ||
      std::fseek(f.get(), kFrameHeaderSize, SEEK_SET) != 0) {
    return Status::IOError("cannot seek in " + path);
  }
  const uint64_t held = static_cast<uint64_t>(file_size) - kFrameHeaderSize;
  if (held != payload_size) {
    return Status::IOError("truncated or padded " + path +
                           ": header promises " +
                           std::to_string(payload_size) +
                           " payload bytes, file has " + std::to_string(held));
  }
  file.payload_size = payload_size;
  file.payload = std::make_unique_for_overwrite<uint8_t[]>(payload_size);
  if (std::fread(file.payload.get(), 1, payload_size, f.get()) !=
      payload_size) {
    return Status::IOError("short read from " + path);
  }
  const uint32_t actual = Crc32(file.payload.get(), payload_size);
  if (actual != file.crc) {
    return Status::IOError("CRC mismatch in " + path + ": stored " +
                           std::to_string(file.crc) + ", computed " +
                           std::to_string(actual));
  }
  return file;
}

}  // namespace sgnn::serialize
