#include "replay/trace_file.hpp"

#include <fstream>
#include <utility>

namespace omg::replay {

namespace {

serve::Error Err(serve::ErrorCode code, std::string message) {
  return serve::Error{code, std::move(message)};
}

/// Encodes the kTraceHeader frame for `info`. The encoding's length
/// depends only on the string fields, so re-encoding with updated counts
/// produces a byte-identical-length frame (what Finish's in-place patch
/// relies on).
std::vector<std::uint8_t> EncodeHeaderFrame(const TraceInfo& info) {
  net::WireWriter payload;
  payload.U32(info.format_version);
  payload.String(info.scenario);
  payload.U64(info.scenario_hash);
  payload.U64(info.records);
  payload.U64(info.examples);
  payload.U32(static_cast<std::uint32_t>(info.streams.size()));
  for (const TraceStreamInfo& stream : info.streams) {
    payload.String(stream.name);
    payload.String(stream.domain);
    payload.F64(stream.severity_hint);
  }
  net::FrameHeader header;
  header.type = net::FrameType::kTraceHeader;
  return net::EncodeFrame(header, payload.bytes());
}

}  // namespace

std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

serve::Result<std::uint64_t> HashFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Err(serve::ErrorCode::kIoError, "cannot read '" + path + "'");
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return Fnv1a64(bytes);
}

// ----------------------------------------------------------------- writer ---

serve::Result<TraceWriter> TraceWriter::Open(const std::string& path,
                                             TraceInfo info) {
  if (info.streams.empty()) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "a trace needs at least one stream");
  }
  for (const TraceStreamInfo& stream : info.streams) {
    if (stream.domain.size() > net::FrameHeader::kDomainBytes) {
      return Err(serve::ErrorCode::kInvalidArgument,
                 "stream '" + stream.name + "' domain '" + stream.domain +
                     "' exceeds the wire domain field");
    }
  }
  info.format_version = kTraceFormatVersion;
  info.records = 0;
  info.examples = 0;
  TraceWriter writer;
  writer.info_ = std::move(info);
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_.good()) {
    return Err(serve::ErrorCode::kIoError,
               "cannot create trace file '" + path + "'");
  }
  const std::vector<std::uint8_t> header = EncodeHeaderFrame(writer.info_);
  writer.out_.write(reinterpret_cast<const char*>(header.data()),
                    static_cast<std::streamsize>(header.size()));
  if (!writer.out_.good()) {
    return Err(serve::ErrorCode::kIoError,
               "write failed on trace file '" + path + "'");
  }
  return writer;
}

serve::Result<bool> TraceWriter::Append(std::uint32_t stream,
                                        std::uint64_t delta_ns,
                                        std::uint32_t count, double hint,
                                        std::span<const std::uint8_t> payload) {
  if (finished_) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "Append after Finish on a trace writer");
  }
  if (stream >= info_.streams.size()) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "record stream index " + std::to_string(stream) +
                   " is outside the " +
                   std::to_string(info_.streams.size()) +
                   "-entry stream table");
  }
  net::FrameHeader header;
  header.type = net::FrameType::kData;
  header.seq = records_;
  header.session = delta_ns;
  header.stream = stream;
  header.set_domain_tag(info_.streams[stream].domain);
  header.count = count;
  header.set_hint(hint);
  const std::vector<std::uint8_t> frame = net::EncodeFrame(header, payload);
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  if (!out_.good()) {
    return Err(serve::ErrorCode::kIoError, "write failed on trace file");
  }
  ++records_;
  examples_ += count;
  return true;
}

serve::Result<bool> TraceWriter::Finish() {
  if (finished_) return true;
  finished_ = true;
  info_.records = records_;
  info_.examples = examples_;
  const std::vector<std::uint8_t> header = EncodeHeaderFrame(info_);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_.good()) {
    return Err(serve::ErrorCode::kIoError,
               "header patch failed on trace file");
  }
  out_.close();
  return true;
}

// ----------------------------------------------------------------- reader ---

serve::Error TraceReader::At(serve::ErrorCode code, std::size_t offset,
                             const std::string& message) const {
  return serve::Error{code, "trace '" + path_ + "' at byte offset " +
                                std::to_string(offset) + ": " + message};
}

serve::Result<TraceReader> TraceReader::Open(const std::string& path) {
  TraceReader reader;
  reader.path_ = path;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      return Err(serve::ErrorCode::kIoError,
                 "cannot read trace file '" + path + "'");
    }
    reader.bytes_.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  }
  const serve::Result<net::Frame> frame =
      net::DecodeFrame(std::span<const std::uint8_t>(reader.bytes_));
  if (!frame.ok()) {
    return reader.At(frame.code(), 0,
                     "trace header frame: " + frame.error().message);
  }
  if (frame.value().header.type != net::FrameType::kTraceHeader) {
    return reader.At(
        serve::ErrorCode::kMalformedPayload, 0,
        "leading frame is '" +
            std::string(net::FrameTypeName(frame.value().header.type)) +
            "', not trace_header — not a trace file");
  }
  net::WireReader payload(frame.value().payload);
  TraceInfo& info = reader.info_;
  std::uint32_t stream_count = 0;
  if (!payload.U32(info.format_version) || !payload.String(info.scenario) ||
      !payload.U64(info.scenario_hash) || !payload.U64(info.records) ||
      !payload.U64(info.examples) || !payload.U32(stream_count)) {
    return reader.At(serve::ErrorCode::kMalformedPayload, 0,
                     "trace header payload truncated");
  }
  if (info.format_version != kTraceFormatVersion) {
    return reader.At(serve::ErrorCode::kMalformedPayload, 0,
                     "trace format version " +
                         std::to_string(info.format_version) +
                         " is not the supported version " +
                         std::to_string(kTraceFormatVersion));
  }
  if (stream_count == 0) {
    return reader.At(serve::ErrorCode::kMalformedPayload, 0,
                     "trace header declares zero streams");
  }
  for (std::uint32_t s = 0; s < stream_count; ++s) {
    TraceStreamInfo stream;
    if (!payload.String(stream.name) || !payload.String(stream.domain) ||
        !payload.F64(stream.severity_hint)) {
      return reader.At(serve::ErrorCode::kMalformedPayload, 0,
                       "trace header stream table truncated at entry " +
                           std::to_string(s));
    }
    info.streams.push_back(std::move(stream));
  }
  if (!payload.AtEnd()) {
    return reader.At(serve::ErrorCode::kMalformedPayload, 0,
                     "trailing bytes after the trace header stream table");
  }
  if (info.records == 0 &&
      reader.bytes_.size() >
          net::FrameHeader::kBytes + frame.value().payload.size()) {
    return reader.At(serve::ErrorCode::kMalformedPayload, 0,
                     "header says zero records but data follows — the "
                     "recording was never finished");
  }
  reader.first_record_offset_ =
      net::FrameHeader::kBytes + frame.value().payload.size();
  reader.Rewind();
  return reader;
}

void TraceReader::Rewind() {
  offset_ = first_record_offset_;
  next_index_ = 0;
  examples_seen_ = 0;
}

serve::Result<std::optional<TraceRecord>> TraceReader::Next() {
  if (next_index_ == info_.records) {
    if (offset_ != bytes_.size()) {
      return At(serve::ErrorCode::kMalformedPayload, offset_,
                "trailing bytes after the final declared record");
    }
    if (examples_seen_ != info_.examples) {
      return At(serve::ErrorCode::kMalformedPayload, offset_,
                "records carry " + std::to_string(examples_seen_) +
                    " examples but the header declared " +
                    std::to_string(info_.examples));
    }
    return std::optional<TraceRecord>{};
  }
  if (offset_ >= bytes_.size()) {
    return At(serve::ErrorCode::kTruncatedFrame, offset_,
              "trace ends after " + std::to_string(next_index_) + " of " +
                  std::to_string(info_.records) + " declared records");
  }
  serve::Result<net::Frame> frame = net::DecodeFrame(
      std::span<const std::uint8_t>(bytes_).subspan(offset_));
  if (!frame.ok()) {
    return At(frame.code(), offset_,
              "record " + std::to_string(next_index_) + ": " +
                  frame.error().message);
  }
  const net::FrameHeader& header = frame.value().header;
  if (header.type != net::FrameType::kData) {
    return At(serve::ErrorCode::kMalformedPayload, offset_,
              "record " + std::to_string(next_index_) + " is a '" +
                  std::string(net::FrameTypeName(header.type)) +
                  "' frame, not data");
  }
  if (header.seq != next_index_) {
    return At(serve::ErrorCode::kMalformedPayload, offset_,
              "record sequence " + std::to_string(header.seq) +
                  " where " + std::to_string(next_index_) +
                  " was expected");
  }
  if (header.stream >= info_.streams.size()) {
    return At(serve::ErrorCode::kMalformedPayload, offset_,
              "record stream index " + std::to_string(header.stream) +
                  " is outside the " +
                  std::to_string(info_.streams.size()) +
                  "-entry stream table");
  }
  const TraceStreamInfo& stream =
      info_.streams[static_cast<std::size_t>(header.stream)];
  if (header.domain_tag() != stream.domain) {
    return At(serve::ErrorCode::kMalformedPayload, offset_,
              "record domain '" + std::string(header.domain_tag()) +
                  "' does not match stream '" + stream.name +
                  "' domain '" + stream.domain + "'");
  }
  TraceRecord record;
  record.index = next_index_;
  record.delta_ns = header.session;
  record.stream = static_cast<std::uint32_t>(header.stream);
  record.count = header.count;
  record.hint = header.hint();
  record.payload = std::move(frame.value().payload);
  offset_ += net::FrameHeader::kBytes + header.payload_length;
  ++next_index_;
  examples_seen_ += header.count;
  return std::optional<TraceRecord>(std::move(record));
}

}  // namespace omg::replay
