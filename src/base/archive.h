// Binary serialization for checkpoint images and transfer payloads.
//
// ArchiveWriter/ArchiveReader implement a type-tagged little-endian stream:
// every field carries a 1-byte type tag, so a reader that drifts out of sync
// with its writer fails fast with kCorrupt instead of silently misreading —
// important for CRIA images crossing devices. Nested sections are
// length-prefixed, letting readers skip unknown sections.
//
// A writer can also build nested sections in place (BeginSection /
// EndSection): the bytes equal those of filling a separate writer per
// nesting level and embedding it with PutSection, but each field is copied
// once. CRIA serializes a whole image this way, into one buffer pre-sized
// with Reserve.
#ifndef FLUX_SRC_BASE_ARCHIVE_H_
#define FLUX_SRC_BASE_ARCHIVE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/bytes.h"
#include "src/base/result.h"

namespace flux {

class ArchiveWriter {
 public:
  void PutBool(bool v);
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutF64(double v);
  void PutString(std::string_view v);
  void PutBytes(ByteSpan v);

  // Streaming bytes field, for content produced piecewise (compressed
  // checkpoint chunks written straight into the payload instead of being
  // staged in a scratch buffer first). BeginBytes writes the tag and a
  // length placeholder and returns a patch token; AppendRaw appends
  // content; EndBytes(token) fixes the length up. The resulting stream is
  // byte-identical to a single PutBytes of the concatenated content.
  size_t BeginBytes();
  void AppendRaw(ByteSpan v);
  void EndBytes(size_t token);

  // Embeds another archive as a length-prefixed section.
  void PutSection(const ArchiveWriter& section);

  // In-place section, the section twin of BeginBytes/EndBytes: the fields
  // written between BeginSection and EndSection(token) form the section.
  // Byte-identical to writing them into a separate writer and calling
  // PutSection with it.
  size_t BeginSection();
  void EndSection(size_t token);

  // Pre-sizes the buffer for `bytes` of total output.
  void Reserve(size_t bytes) { data_.reserve(bytes); }

  const Bytes& data() const { return data_; }
  Bytes TakeData() { return std::move(data_); }
  size_t size() const { return data_.size(); }

 private:
  void RawU64(uint64_t v);
  size_t BeginLength(uint8_t tag);
  void EndLength(size_t token);
  Bytes data_;
};

class ArchiveReader {
 public:
  explicit ArchiveReader(ByteSpan data) : data_(data) {}

  Status GetBool(bool& out);
  Status GetU8(uint8_t& out);
  Status GetU32(uint32_t& out);
  Status GetU64(uint64_t& out);
  Status GetI64(int64_t& out);
  Status GetF64(double& out);
  Status GetString(std::string& out);
  Status GetBytes(Bytes& out);
  // Zero-copy variant: `out` views into this reader's buffer and is only
  // valid while the underlying payload lives.
  Status GetBytesView(ByteSpan& out);

  // Reads a section; the returned reader views into this reader's buffer.
  Status GetSection(ArchiveReader& out);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Expect(uint8_t tag);
  Status RawU64(uint64_t& out);

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace flux

#endif  // FLUX_SRC_BASE_ARCHIVE_H_
