#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace omg::net {

namespace {

/// Slice-by-8 tables for the reflected IEEE CRC32: kCrcTables[0] is the
/// bytewise table, and kCrcTables[k][b] is the CRC of byte b followed by k
/// zero bytes, so one lookup per byte of an 8-byte word advances the CRC
/// by the whole word.
consteval std::array<std::array<std::uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    MakeCrcTables();

// Byte offsets of the header fields (the layout in wire.hpp); the magic is
// at 0 and header_crc32 at FrameHeader::kCrcCoveredBytes.
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kTypeAt = 6;
constexpr std::size_t kSeqAt = 8;
constexpr std::size_t kSessionAt = 16;
constexpr std::size_t kStreamAt = 24;
constexpr std::size_t kDomainAt = 32;
constexpr std::size_t kCountAt = 40;
constexpr std::size_t kLengthAt = 44;
constexpr std::size_t kPayloadCrcAt = 48;
constexpr std::size_t kHintAt = 52;

template <typename T>
void Store(std::uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(T));
}

template <typename T>
T Load(const std::uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

serve::Error WireError(serve::ErrorCode code, std::string message) {
  return serve::Error{code, std::move(message)};
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kBindStream: return "bind_stream";
    case FrameType::kData: return "data";
    case FrameType::kFlush: return "flush";
    case FrameType::kStats: return "stats";
    case FrameType::kGoodbye: return "goodbye";
    case FrameType::kAck: return "ack";
    case FrameType::kError: return "error";
    case FrameType::kTraceHeader: return "trace_header";
  }
  return "unknown";
}

bool KnownFrameType(std::uint16_t type) {
  return type >= static_cast<std::uint16_t>(FrameType::kHello) &&
         type <= static_cast<std::uint16_t>(FrameType::kTraceHeader);
}

std::uint32_t Crc32(std::span<const std::uint8_t> bytes) {
  const auto& t = kCrcTables;
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; left >= 8; at += 8, left -= 8) {
    const std::uint32_t lo = Load<std::uint32_t>(at) ^ crc;
    const std::uint32_t hi = Load<std::uint32_t>(at + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; left > 0; ++at, --left) {
    crc = (crc >> 8) ^ t[0][(crc ^ *at) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string_view FrameHeader::domain_tag() const {
  std::size_t length = 0;
  while (length < kDomainBytes && domain[length] != '\0') ++length;
  return {domain, length};
}

void FrameHeader::set_domain_tag(std::string_view tag) {
  common::Check(tag.size() <= kDomainBytes,
                "domain tag '" + std::string(tag) + "' exceeds the " +
                    std::to_string(kDomainBytes) + "-byte wire field");
  std::memset(domain, 0, kDomainBytes);
  std::memcpy(domain, tag.data(), tag.size());
}

double FrameHeader::hint() const { return std::bit_cast<double>(hint_bits); }

void FrameHeader::set_hint(double value) {
  hint_bits = std::bit_cast<std::uint64_t>(value);
}

void WireWriter::U16(std::uint16_t value) {
  buffer_.push_back(static_cast<std::uint8_t>(value));
  buffer_.push_back(static_cast<std::uint8_t>(value >> 8));
}

void WireWriter::U32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void WireWriter::U64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void WireWriter::F64(double value) { U64(std::bit_cast<std::uint64_t>(value)); }

void WireWriter::String(std::string_view value) {
  common::Check(value.size() <= WireReader::kMaxStringBytes,
                "wire string exceeds the protocol limit");
  U32(static_cast<std::uint32_t>(value.size()));
  Bytes(value.data(), value.size());
}

void WireWriter::Bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

bool WireReader::String(std::string& value) {
  std::uint32_t length;
  const std::size_t before = offset_;
  if (!U32(length)) return false;
  if (length > kMaxStringBytes || remaining() < length) {
    offset_ = before;
    return false;
  }
  value.assign(reinterpret_cast<const char*>(bytes_.data() + offset_),
               length);
  offset_ += length;
  return true;
}

std::array<std::uint8_t, FrameHeader::kBytes> EncodeHeader(
    const FrameHeader& header) {
  std::array<std::uint8_t, FrameHeader::kBytes> out;
  std::uint8_t* at = out.data();
  std::memcpy(at, kWireMagic, sizeof(kWireMagic));
  Store(at + kVersionAt, header.version);
  Store(at + kTypeAt, static_cast<std::uint16_t>(header.type));
  Store(at + kSeqAt, header.seq);
  Store(at + kSessionAt, header.session);
  Store(at + kStreamAt, header.stream);
  std::memcpy(at + kDomainAt, header.domain, FrameHeader::kDomainBytes);
  Store(at + kCountAt, header.count);
  Store(at + kLengthAt, header.payload_length);
  Store(at + kPayloadCrcAt, header.payload_crc32);
  Store(at + kHintAt, header.hint_bits);
  Store(at + FrameHeader::kCrcCoveredBytes,
        Crc32(std::span(out).first(FrameHeader::kCrcCoveredBytes)));
  return out;
}

std::vector<std::uint8_t> EncodeFrame(FrameHeader header,
                                      std::span<const std::uint8_t> payload) {
  header.payload_length = static_cast<std::uint32_t>(payload.size());
  header.payload_crc32 = Crc32(payload);
  const std::array<std::uint8_t, FrameHeader::kBytes> head =
      EncodeHeader(header);
  std::vector<std::uint8_t> out(head.size() + payload.size());
  std::copy(head.begin(), head.end(), out.begin());
  std::copy(payload.begin(), payload.end(), out.begin() + head.size());
  return out;
}

serve::Result<FrameHeader> DecodeHeader(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < FrameHeader::kBytes) {
    return WireError(serve::ErrorCode::kTruncatedFrame,
                     "frame header truncated: " +
                         std::to_string(bytes.size()) + " of " +
                         std::to_string(FrameHeader::kBytes) + " bytes");
  }
  if (std::memcmp(bytes.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    return WireError(serve::ErrorCode::kBadMagic,
                     "frame does not start with the OMGW magic");
  }
  const std::uint8_t* at = bytes.data();
  FrameHeader header;
  const auto type = Load<std::uint16_t>(at + kTypeAt);
  header.version = Load<std::uint16_t>(at + kVersionAt);
  header.seq = Load<std::uint64_t>(at + kSeqAt);
  header.session = Load<std::uint64_t>(at + kSessionAt);
  header.stream = Load<std::uint64_t>(at + kStreamAt);
  std::memcpy(header.domain, at + kDomainAt, FrameHeader::kDomainBytes);
  header.count = Load<std::uint32_t>(at + kCountAt);
  header.payload_length = Load<std::uint32_t>(at + kLengthAt);
  header.payload_crc32 = Load<std::uint32_t>(at + kPayloadCrcAt);
  header.hint_bits = Load<std::uint64_t>(at + kHintAt);
  header.header_crc32 =
      Load<std::uint32_t>(at + FrameHeader::kCrcCoveredBytes);
  if (header.version != kWireVersion) {
    return WireError(serve::ErrorCode::kBadVersion,
                     "wire version " + std::to_string(header.version) +
                         " is not the supported version " +
                         std::to_string(kWireVersion));
  }
  if (!KnownFrameType(type)) {
    return WireError(serve::ErrorCode::kUnknownFrameType,
                     "unknown frame type " + std::to_string(type));
  }
  // Checked after magic/version/type so their targeted diagnostics win,
  // but before any field is trusted: a corrupted count or payload_length
  // must surface as header corruption, not feed accounting.
  if (Crc32(bytes.first(FrameHeader::kCrcCoveredBytes)) !=
      header.header_crc32) {
    return WireError(serve::ErrorCode::kCrcMismatch,
                     "frame header CRC32 does not match its trailing word");
  }
  header.type = static_cast<FrameType>(type);
  return header;
}

serve::Result<Frame> DecodeFrame(std::span<const std::uint8_t> bytes,
                                 std::size_t max_frame_bytes) {
  serve::Result<FrameHeader> header = DecodeHeader(bytes);
  if (!header.ok()) return header.error();
  if (max_frame_bytes != 0 &&
      header.value().payload_length > max_frame_bytes) {
    return WireError(serve::ErrorCode::kOversizedFrame,
                     "payload of " +
                         std::to_string(header.value().payload_length) +
                         " bytes exceeds the " +
                         std::to_string(max_frame_bytes) + "-byte limit");
  }
  const std::span<const std::uint8_t> rest =
      bytes.subspan(FrameHeader::kBytes);
  if (rest.size() < header.value().payload_length) {
    return WireError(serve::ErrorCode::kTruncatedFrame,
                     "frame payload truncated: " +
                         std::to_string(rest.size()) + " of " +
                         std::to_string(header.value().payload_length) +
                         " bytes");
  }
  const std::span<const std::uint8_t> payload =
      rest.first(header.value().payload_length);
  if (Crc32(payload) != header.value().payload_crc32) {
    return WireError(serve::ErrorCode::kCrcMismatch,
                     "payload CRC32 does not match the header");
  }
  Frame frame;
  frame.header = header.value();
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

FrameAssembler::FrameAssembler(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  common::Check(max_frame_bytes_ > 0,
                "frame assembler needs a positive frame limit");
}

void FrameAssembler::Feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before growing: the buffer then stays
  // bounded by one partial frame plus one read slice.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameAssembler::Step FrameAssembler::Next() {
  Step step;
  if (poisoned_) {
    step.failure = *poisoned_;
    return step;
  }
  const std::span<const std::uint8_t> pending =
      std::span<const std::uint8_t>(buffer_).subspan(consumed_);
  if (pending.size() < FrameHeader::kBytes) return step;  // need more bytes

  const serve::Result<FrameHeader> header = DecodeHeader(pending);
  if (!header.ok()) {
    // Every header-level failure here is fatal: without a trustworthy
    // header there is no length to skip by. (kTruncatedFrame cannot occur
    // — kBytes availability was checked above.)
    DecodeFailure failure{header.error(), 0, true};
    poisoned_ = failure;
    step.failure = std::move(failure);
    return step;
  }
  if (header.value().payload_length > max_frame_bytes_) {
    DecodeFailure failure{
        WireError(serve::ErrorCode::kOversizedFrame,
                  "payload of " +
                      std::to_string(header.value().payload_length) +
                      " bytes exceeds the " +
                      std::to_string(max_frame_bytes_) + "-byte limit"),
        header.value().count, true};
    poisoned_ = failure;
    step.failure = std::move(failure);
    return step;
  }
  const std::size_t total =
      FrameHeader::kBytes + header.value().payload_length;
  if (pending.size() < total) return step;  // need more bytes

  const std::span<const std::uint8_t> payload =
      pending.subspan(FrameHeader::kBytes, header.value().payload_length);
  consumed_ += total;  // the frame is consumed either way below
  if (Crc32(payload) != header.value().payload_crc32) {
    step.failure =
        DecodeFailure{WireError(serve::ErrorCode::kCrcMismatch,
                                "payload CRC32 does not match the header"),
                      header.value().count, false};
    return step;
  }
  step.frame = FrameView{header.value(), payload};
  return step;
}

}  // namespace omg::net
