#include "src/base/archive.h"

#include <cstring>

namespace flux {

namespace {

enum Tag : uint8_t {
  kTagBool = 0xB0,
  kTagU8 = 0xB1,
  kTagU32 = 0xB2,
  kTagU64 = 0xB3,
  kTagI64 = 0xB4,
  kTagF64 = 0xB5,
  kTagString = 0xB6,
  kTagBytes = 0xB7,
  kTagSection = 0xB8,
};

}  // namespace

void ArchiveWriter::RawU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

size_t ArchiveWriter::BeginLength(uint8_t tag) {
  data_.push_back(tag);
  const size_t token = data_.size();
  RawU64(0);  // placeholder, patched by EndLength
  return token;
}

void ArchiveWriter::EndLength(size_t token) {
  const uint64_t length = data_.size() - (token + 8);
  for (int i = 0; i < 8; ++i) {
    data_[token + static_cast<size_t>(i)] =
        static_cast<uint8_t>(length >> (8 * i));
  }
}

void ArchiveWriter::PutBool(bool v) {
  data_.push_back(kTagBool);
  data_.push_back(v ? 1 : 0);
}

void ArchiveWriter::PutU8(uint8_t v) {
  data_.push_back(kTagU8);
  data_.push_back(v);
}

void ArchiveWriter::PutU32(uint32_t v) {
  data_.push_back(kTagU32);
  for (int i = 0; i < 4; ++i) {
    data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ArchiveWriter::PutU64(uint64_t v) {
  data_.push_back(kTagU64);
  RawU64(v);
}

void ArchiveWriter::PutI64(int64_t v) {
  data_.push_back(kTagI64);
  RawU64(static_cast<uint64_t>(v));
}

void ArchiveWriter::PutF64(double v) {
  data_.push_back(kTagF64);
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  RawU64(bits);
}

void ArchiveWriter::PutString(std::string_view v) {
  data_.push_back(kTagString);
  RawU64(v.size());
  data_.insert(data_.end(), v.begin(), v.end());
}

void ArchiveWriter::PutBytes(ByteSpan v) {
  data_.push_back(kTagBytes);
  RawU64(v.size());
  data_.insert(data_.end(), v.begin(), v.end());
}

size_t ArchiveWriter::BeginBytes() { return BeginLength(kTagBytes); }

void ArchiveWriter::AppendRaw(ByteSpan v) {
  data_.insert(data_.end(), v.begin(), v.end());
}

void ArchiveWriter::EndBytes(size_t token) { EndLength(token); }

size_t ArchiveWriter::BeginSection() { return BeginLength(kTagSection); }

void ArchiveWriter::EndSection(size_t token) { EndLength(token); }

void ArchiveWriter::PutSection(const ArchiveWriter& section) {
  data_.push_back(kTagSection);
  RawU64(section.data_.size());
  data_.insert(data_.end(), section.data_.begin(), section.data_.end());
}

Status ArchiveReader::Expect(uint8_t tag) {
  if (pos_ >= data_.size()) {
    return Corrupt("archive: truncated (expected tag)");
  }
  if (data_[pos_] != tag) {
    return Corrupt("archive: tag mismatch");
  }
  ++pos_;
  return OkStatus();
}

Status ArchiveReader::RawU64(uint64_t& out) {
  if (pos_ + 8 > data_.size()) {
    return Corrupt("archive: truncated u64");
  }
  out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return OkStatus();
}

Status ArchiveReader::GetBool(bool& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagBool));
  if (pos_ >= data_.size()) {
    return Corrupt("archive: truncated bool");
  }
  out = data_[pos_++] != 0;
  return OkStatus();
}

Status ArchiveReader::GetU8(uint8_t& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagU8));
  if (pos_ >= data_.size()) {
    return Corrupt("archive: truncated u8");
  }
  out = data_[pos_++];
  return OkStatus();
}

Status ArchiveReader::GetU32(uint32_t& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagU32));
  if (pos_ + 4 > data_.size()) {
    return Corrupt("archive: truncated u32");
  }
  out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return OkStatus();
}

Status ArchiveReader::GetU64(uint64_t& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagU64));
  return RawU64(out);
}

Status ArchiveReader::GetI64(int64_t& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagI64));
  uint64_t raw = 0;
  FLUX_RETURN_IF_ERROR(RawU64(raw));
  out = static_cast<int64_t>(raw);
  return OkStatus();
}

Status ArchiveReader::GetF64(double& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagF64));
  uint64_t bits = 0;
  FLUX_RETURN_IF_ERROR(RawU64(bits));
  std::memcpy(&out, &bits, sizeof(out));
  return OkStatus();
}

Status ArchiveReader::GetString(std::string& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagString));
  uint64_t len = 0;
  FLUX_RETURN_IF_ERROR(RawU64(len));
  if (len > data_.size() - pos_) {
    return Corrupt("archive: truncated string");
  }
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return OkStatus();
}

Status ArchiveReader::GetBytes(Bytes& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagBytes));
  uint64_t len = 0;
  FLUX_RETURN_IF_ERROR(RawU64(len));
  if (len > data_.size() - pos_) {
    return Corrupt("archive: truncated bytes");
  }
  out.assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
             data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
  pos_ += len;
  return OkStatus();
}

Status ArchiveReader::GetBytesView(ByteSpan& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagBytes));
  uint64_t len = 0;
  FLUX_RETURN_IF_ERROR(RawU64(len));
  if (len > data_.size() - pos_) {
    return Corrupt("archive: truncated bytes");
  }
  out = data_.subspan(pos_, len);
  pos_ += len;
  return OkStatus();
}

Status ArchiveReader::GetSection(ArchiveReader& out) {
  FLUX_RETURN_IF_ERROR(Expect(kTagSection));
  uint64_t len = 0;
  FLUX_RETURN_IF_ERROR(RawU64(len));
  if (len > data_.size() - pos_) {
    return Corrupt("archive: truncated section");
  }
  out = ArchiveReader(data_.subspan(pos_, len));
  pos_ += len;
  return OkStatus();
}

}  // namespace flux
