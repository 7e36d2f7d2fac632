// The OMG ingestion wire format: length-prefixed binary frames.
//
// Every message between a net client and the IngestServer is one *frame*:
// a fixed 64-byte little-endian header followed by `payload_length` payload
// bytes. The header carries everything routing needs — frame type, tenant
// session, stream binding, domain tag, example count — so a receiver can
// account for a frame (and skip it) without decoding the payload:
//
//   offset  size  field
//        0     4  magic          "OMGW"
//        4     2  version        kWireVersion (2)
//        6     2  type           FrameType
//        8     8  seq            sender-assigned; echoed by ACK/ERROR
//       16     8  session        tenant session id (0 before HELLO)
//       24     8  stream         stream binding id (DATA), else 0
//       32     8  domain         zero-padded ASCII domain tag ("video")
//       40     4  count          examples in a DATA payload
//       44     4  payload_length payload bytes following the header
//       48     4  payload_crc32  IEEE CRC32 of the payload bytes
//       52     8  hint           bit-cast f64 admission severity hint
//       60     4  header_crc32   IEEE CRC32 of header bytes [0, 60)
//       64     …  payload        codec- or control-encoded (see codec.hpp)
//
// Version 2 added header_crc32 (the trailing header word, covering every
// header byte before it) so a receiver can tell header corruption from
// payload corruption: without it, a flipped bit in `count` silently skewed
// the per-tenant decode-error accounting because the payload-CRC failure
// path charged the corrupted count as lost examples.
//
// Decoding never aborts: one-shot decodes return serve::Result, and the
// streaming FrameAssembler reports typed DecodeFailures (truncated frame,
// bad magic, CRC mismatch, …) per docs/WIRE_PROTOCOL.md. A failure that
// leaves the framing trustworthy (payload CRC mismatch under an intact,
// header-CRC-verified length) skips one frame and keeps the connection;
// one that does not (bad magic, bad version, unknown type, header CRC
// mismatch, oversized length) is fatal and poisons the assembler.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/result.hpp"

namespace omg::net {

// Fixed-width fields are loaded and stored with memcpy, which is the wire's
// little-endian byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the wire codec assumes a little-endian host");

/// First four bytes of every frame.
inline constexpr std::uint8_t kWireMagic[4] = {'O', 'M', 'G', 'W'};

/// Wire-format version this build speaks (negotiated at HELLO: both peers
/// must agree exactly). Version 2 grew the header from 60 to 64 bytes by
/// appending header_crc32.
inline constexpr std::uint16_t kWireVersion = 2;

/// Message vocabulary. Values cross the wire; append, never renumber.
enum class FrameType : std::uint16_t {
  kHello = 1,        ///< client -> server: tenant name + token (payload)
  kBindStream = 2,   ///< client -> server: bind a stream name (payload)
  kData = 3,         ///< client -> server: one example batch (codec payload)
  kFlush = 4,        ///< client -> server: drain the monitor, then ACK
  kStats = 5,        ///< client -> server: flush + reply server counters
  kGoodbye = 6,      ///< client -> server: orderly close after ACK
  kAck = 7,          ///< server -> client: success reply (payload: values)
  kError = 8,        ///< server -> client: typed failure (code + message)
  kTraceHeader = 9,  ///< trace files only (src/replay): leading metadata
                     ///< frame; a live server ignores it on receive
};

/// Stable snake_case name ("hello", "data", ...).
std::string_view FrameTypeName(FrameType type);

/// True when `type`'s integer value is in the FrameType vocabulary.
bool KnownFrameType(std::uint16_t type);

/// IEEE 802.3 CRC32 (reflected) over `bytes`, eight bytes per step
/// (slice-by-8 tables); the values are those of the bytewise table loop.
std::uint32_t Crc32(std::span<const std::uint8_t> bytes);

/// The fixed frame header; see the file comment for the wire layout.
struct FrameHeader {
  /// Encoded size in bytes.
  static constexpr std::size_t kBytes = 64;
  /// Bytes covered by header_crc32 (everything before it).
  static constexpr std::size_t kCrcCoveredBytes = 60;
  /// Longest domain tag the fixed field can carry.
  static constexpr std::size_t kDomainBytes = 8;

  std::uint16_t version = kWireVersion;
  FrameType type = FrameType::kData;
  std::uint64_t seq = 0;
  std::uint64_t session = 0;
  std::uint64_t stream = 0;
  char domain[kDomainBytes] = {};
  std::uint32_t count = 0;
  std::uint32_t payload_length = 0;
  std::uint32_t payload_crc32 = 0;
  /// Admission severity hint, bit-cast to preserve the exact double.
  std::uint64_t hint_bits = 0;
  /// IEEE CRC32 of the first kCrcCoveredBytes encoded header bytes; filled
  /// by EncodeHeader, verified by DecodeHeader. Keeps the framing fields —
  /// above all `count` and `payload_length` — trustworthy, so accounting
  /// never charges a corrupted example count.
  std::uint32_t header_crc32 = 0;

  /// The domain tag without trailing NULs (empty for control frames).
  std::string_view domain_tag() const;
  /// Installs `tag` (must fit kDomainBytes; longer tags throw CheckError —
  /// registries reject such domain names before they reach the wire).
  void set_domain_tag(std::string_view tag);

  double hint() const;
  void set_hint(double value);
};

/// Little-endian append-only encode buffer.
class WireWriter {
 public:
  void U8(std::uint8_t value) { buffer_.push_back(value); }
  void U16(std::uint16_t value);
  void U32(std::uint32_t value);
  void U64(std::uint64_t value);
  void I64(std::int64_t value) { U64(static_cast<std::uint64_t>(value)); }
  void F64(double value);
  /// u32 byte length + raw bytes.
  void String(std::string_view value);
  void Bytes(const void* data, std::size_t size);

  std::span<const std::uint8_t> bytes() const { return buffer_; }
  std::vector<std::uint8_t>& buffer() { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian cursor over a byte span. Every read returns
/// false (consuming nothing) on underrun instead of throwing — malformed
/// payloads are routine input on a server. Fixed-width reads are inline
/// loads: codecs call them once per field.
class WireReader {
 public:
  /// Longest string a String() read accepts; caps allocation from a
  /// corrupted length prefix.
  static constexpr std::size_t kMaxStringBytes = 1 << 16;

  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool U8(std::uint8_t& value) { return Fixed(value); }
  bool U16(std::uint16_t& value) { return Fixed(value); }
  bool U32(std::uint32_t& value) { return Fixed(value); }
  bool U64(std::uint64_t& value) { return Fixed(value); }
  bool I64(std::int64_t& value) { return Fixed(value); }
  bool F64(double& value) { return Fixed(value); }
  bool String(std::string& value);

  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool AtEnd() const { return offset_ == bytes_.size(); }

 private:
  template <typename T>
  bool Fixed(T& value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// `header`'s kBytes encoding (magic included), with header_crc32 computed
/// over its first kCrcCoveredBytes whatever `header.header_crc32` says.
std::array<std::uint8_t, FrameHeader::kBytes> EncodeHeader(
    const FrameHeader& header);

/// One whole frame: `header` with payload_length/payload_crc32 filled from
/// `payload`, followed by the payload bytes.
std::vector<std::uint8_t> EncodeFrame(FrameHeader header,
                                      std::span<const std::uint8_t> payload);

/// Decodes the leading kBytes of `bytes` into a header. Typed errors:
/// kTruncatedFrame, kBadMagic, kBadVersion, kUnknownFrameType, and
/// kCrcMismatch when the header's own CRC32 fails.
serve::Result<FrameHeader> DecodeHeader(std::span<const std::uint8_t> bytes);

/// One decoded frame that owns its payload.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// One decoded frame whose payload is a view into the decoder's buffer
/// (FrameAssembler::Next says how long it stays valid).
struct FrameView {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

/// One-shot decode of a complete frame (header + payload, CRC verified).
/// Adds kOversizedFrame / kCrcMismatch to DecodeHeader's errors;
/// `max_frame_bytes` bounds the accepted payload length (0 = unlimited).
serve::Result<Frame> DecodeFrame(std::span<const std::uint8_t> bytes,
                                 std::size_t max_frame_bytes = 0);

/// One streaming decode failure (see FrameAssembler::Next).
struct DecodeFailure {
  serve::Error error;
  /// header.count when the header passed its own CRC (examples the failed
  /// frame verifiably claimed to carry — feeds wire-rejection accounting),
  /// else 0. A corrupted header cannot inject a bogus count here: header
  /// corruption fails the header CRC and reports 0.
  std::uint32_t lost_examples = 0;
  /// True when the byte stream can no longer be framed (bad magic, bad
  /// version, unknown type, header CRC mismatch, oversized length): the
  /// connection must be closed. The one non-fatal failure, payload CRC
  /// mismatch, skips the frame — its header-CRC-verified length prefix is
  /// still trustworthy — and recovers.
  bool fatal = false;
};

/// Incremental per-connection frame reassembly: Feed() arbitrary read()
/// slices, then drain complete frames with Next(). Handles frames split
/// across any byte boundary, including mid-header. Feed copies the slice
/// into the assembler's buffer; Next hands each payload out as a view into
/// that buffer, so a frame costs no copy or allocation of its own.
class FrameAssembler {
 public:
  /// `max_frame_bytes` bounds a single frame's payload (a corrupt or
  /// hostile length prefix must not buffer unbounded memory).
  explicit FrameAssembler(std::size_t max_frame_bytes);

  /// Appends raw received bytes. Invalidates every view Next() handed out.
  void Feed(std::span<const std::uint8_t> bytes);

  /// Outcome of one Next() call: exactly one of {frame, failure} is set,
  /// or neither when more bytes are needed.
  struct Step {
    std::optional<FrameView> frame;
    std::optional<DecodeFailure> failure;
    bool NeedMore() const { return !frame && !failure; }
  };

  /// Extracts the next complete frame (or failure) from the buffered
  /// bytes. The frame's payload view stays valid until the next Feed();
  /// Next() itself moves no bytes, so views from successive calls coexist.
  /// After a fatal failure every subsequent call repeats it.
  Step Next();

  /// Bytes buffered but not yet consumed by Next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// True when a partial frame is pending (a close now would truncate it).
  bool MidFrame() const { return buffered() > 0; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  std::optional<DecodeFailure> poisoned_;
};

}  // namespace omg::net
