#include "wal/format.hpp"

#include <array>
#include <charconv>

#include "common/bytes.hpp"
#include "common/strutil.hpp"

namespace md::wal {
namespace {

// Slice-by-8 CRC-32 tables (IEEE 802.3 reflected polynomial), built at
// compile time. kCrcTables[0] is the classic bytewise table; kCrcTables[k]
// advances a byte's contribution past k further zero bytes, so eight table
// lookups fold eight input bytes per step. Same polynomial, same values as
// the bytewise loop: only the speed changes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

std::uint32_t LoadLe32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// A record payload: the bytes the frame's length and CRC cover. Templated
/// so one definition both measures (ByteSizer) and writes (ByteWriter).
template <typename W>
void WriteRecordPayload(W& w, const Message& msg) {
  w.WriteString(msg.topic);
  w.WriteLengthPrefixed(msg.payload);
  w.WriteU32(msg.epoch);
  w.WriteU64(msg.seq);
  w.WriteU64(msg.pubId.clientHash);
  w.WriteU64(msg.pubId.counter);
  w.WriteU64(static_cast<std::uint64_t>(msg.publishTs));
}

}  // namespace

std::uint32_t Crc32(BytesView data) noexcept {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFU;
}

std::string SegmentFileName(std::uint32_t group, std::uint64_t index) {
  return Format("g%u-%llu.wal", group, static_cast<unsigned long long>(index));
}

std::optional<SegmentName> ParseSegmentFileName(const std::string& name) {
  if (name.size() < 7 || name.front() != 'g') return std::nullopt;  // g0-0.wal
  if (!name.ends_with(".wal")) return std::nullopt;
  const std::size_t dash = name.find('-', 1);
  if (dash == std::string::npos || dash == 1) return std::nullopt;
  const char* groupBegin = name.data() + 1;
  const char* groupEnd = name.data() + dash;
  const char* indexBegin = name.data() + dash + 1;
  const char* indexEnd = name.data() + name.size() - 4;
  if (indexBegin >= indexEnd) return std::nullopt;
  SegmentName parsed;
  auto [gp, gerr] = std::from_chars(groupBegin, groupEnd, parsed.group);
  if (gerr != std::errc{} || gp != groupEnd) return std::nullopt;
  auto [ip, ierr] = std::from_chars(indexBegin, indexEnd, parsed.index);
  if (ierr != std::errc{} || ip != indexEnd) return std::nullopt;
  return parsed;
}

void EncodeSegmentHeader(std::uint32_t group, Bytes& out) {
  ByteWriter writer(out);
  writer.WriteU32(kSegmentMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteU32(group);
  writer.WriteU32(0);  // reserved
}

Status DecodeSegmentHeader(BytesView data, std::uint32_t expectGroup) {
  ByteReader reader(data);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t group = 0;
  std::uint32_t reserved = 0;
  if (Status s = reader.ReadU32(magic); !s.ok()) return s;
  if (Status s = reader.ReadU32(version); !s.ok()) return s;
  if (Status s = reader.ReadU32(group); !s.ok()) return s;
  if (Status s = reader.ReadU32(reserved); !s.ok()) return s;
  if (magic != kSegmentMagic) {
    return Err(ErrorCode::kProtocol, "bad segment magic");
  }
  if (version != kFormatVersion) {
    return Err(ErrorCode::kProtocol, "unsupported segment version");
  }
  if (group != expectGroup) {
    return Err(ErrorCode::kProtocol, "segment group mismatch");
  }
  return OkStatus();
}

void EncodeRecord(const Message& msg, Bytes& out) {
  ByteSizer sizer;
  WriteRecordPayload(sizer, msg);
  const std::size_t len = sizer.size();
  ReserveForAppend(out, kRecordFrameLen + len);
  ByteWriter frame(out);
  frame.WriteU32(static_cast<std::uint32_t>(len));
  const std::size_t crcAt = out.size();
  frame.WriteU32(0);  // patched below, once the payload is in place
  WriteRecordPayload(frame, msg);
  const std::uint32_t crc = Crc32(BytesView(out).subspan(crcAt + 4, len));
  for (int i = 0; i < 4; ++i) {
    out[crcAt + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

Status DecodeRecordPayload(BytesView payload, Message* msg) {
  ByteReader reader(payload);
  Message out;
  if (Status s = reader.ReadString(out.topic); !s.ok()) return s;
  BytesView body;
  if (Status s = reader.ReadLengthPrefixed(body); !s.ok()) return s;
  out.payload.assign(body.begin(), body.end());
  if (Status s = reader.ReadU32(out.epoch); !s.ok()) return s;
  if (Status s = reader.ReadU64(out.seq); !s.ok()) return s;
  if (Status s = reader.ReadU64(out.pubId.clientHash); !s.ok()) return s;
  if (Status s = reader.ReadU64(out.pubId.counter); !s.ok()) return s;
  std::uint64_t ts = 0;
  if (Status s = reader.ReadU64(ts); !s.ok()) return s;
  out.publishTs = static_cast<std::int64_t>(ts);
  // Trailing bytes are tolerated: a future version may extend the record.
  *msg = std::move(out);
  return OkStatus();
}

SegmentScanner::SegmentScanner(BytesView data, std::uint32_t group)
    : data_(data) {
  if (!DecodeSegmentHeader(data_, group).ok()) {
    badHeader_ = true;
    done_ = true;
    return;
  }
  offset_ = kSegmentHeaderLen;
}

bool SegmentScanner::Next(Message* msg) {
  while (!done_) {
    const std::size_t remaining = data_.size() - offset_;
    if (remaining < kRecordFrameLen) {
      // A clean close leaves exactly zero bytes; anything else is a torn
      // frame from a crash mid-append.
      torn_ = remaining != 0;
      done_ = true;
      return false;
    }
    ByteReader frame(data_.subspan(offset_, kRecordFrameLen));
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    (void)frame.ReadU32(len);
    (void)frame.ReadU32(crc);
    if (len == 0 || len > kMaxRecordLen) {
      // Zero-filled tail (preallocation / torn page) or garbage length: the
      // framing itself is gone, nothing beyond here can be trusted.
      torn_ = true;
      done_ = true;
      return false;
    }
    if (remaining - kRecordFrameLen < len) {
      torn_ = true;  // record cut off mid-payload
      done_ = true;
      return false;
    }
    const BytesView payload = data_.subspan(offset_ + kRecordFrameLen, len);
    offset_ += kRecordFrameLen + len;
    if (Crc32(payload) != crc) {
      // Sane framing, wrong checksum: a bit flip inside one record. Skip it
      // and keep going — later records are still intact.
      ++corruptSkipped_;
      continue;
    }
    if (!DecodeRecordPayload(payload, msg).ok()) {
      ++undecodable_;
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace md::wal
