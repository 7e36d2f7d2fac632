// On-disk example traces: the wire format, persisted.
//
// A trace file is a sequence of ordinary wire frames (net/wire.hpp, 64-byte
// CRC-guarded headers), so the reader inherits every corruption check the
// network path has — truncated headers, flipped header bytes, payload CRC
// mismatches — and the corrupt-frame test corpus exercises both paths.
//
//   frame 0            kTraceHeader: trace metadata (below)
//   frames 1..records  kData: one recorded batch each
//
// The kTraceHeader payload (WireWriter encoding):
//
//   u32  format version (kTraceFormatVersion)
//   str  scenario name
//   u64  scenario hash (FNV-1a 64 of the scenario config bytes)
//   u64  record count      ┐ patched in place by TraceWriter::Finish —
//   u64  total examples    ┘ zero while a recording is in progress
//   u32  stream count
//   per stream: str name, str domain, f64 severity_hint
//
// Each kData record frame reuses the wire header fields:
//
//   seq      record index (0-based, dense — readers verify)
//   session  inter-arrival delta to the previous record, nanoseconds
//   stream   index into the header's stream table
//   domain   the stream's domain tag (redundant; readers verify)
//   count    examples in the batch
//   hint     admission severity hint
//   payload  the domain codec's batch encoding (net/codec.hpp)
//
// Inter-arrival deltas are *synthetic* at record time (derived from the
// [replay] record_eps rate, not the wall clock) so recording the same
// scenario twice produces byte-identical files. Replay multiplies them by
// 1/speed; see replay.hpp.
//
// All reader errors are positioned: the message names the byte offset of
// the frame that failed, so a truncated or bit-flipped trace is
// diagnosable without a hex dump.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "serve/result.hpp"

namespace omg::replay {

/// Trace payload-format version this build reads and writes.
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// FNV-1a 64-bit hash (offset basis 0xcbf29ce484222325, prime
/// 0x100000001b3) — the digest used for scenario hashes and golden flag
/// digests. Stable across platforms; not cryptographic.
std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes);

/// FNV-1a 64 of a file's bytes (what TraceInfo::scenario_hash holds for
/// the scenario config); kIoError when the file cannot be read.
serve::Result<std::uint64_t> HashFile(const std::string& path);

/// One stream of the trace's stream table.
struct TraceStreamInfo {
  std::string name;
  std::string domain;
  double severity_hint = 0.0;
};

/// The kTraceHeader metadata.
struct TraceInfo {
  std::uint32_t format_version = kTraceFormatVersion;
  std::string scenario;            ///< [scenario] name
  std::uint64_t scenario_hash = 0; ///< FNV-1a 64 of the config file bytes
  std::uint64_t records = 0;       ///< kData frames following the header
  std::uint64_t examples = 0;      ///< total examples across all records
  std::vector<TraceStreamInfo> streams;
};

/// One recorded batch.
struct TraceRecord {
  std::uint64_t index = 0;     ///< dense 0-based position in the trace
  std::uint64_t delta_ns = 0;  ///< inter-arrival delta to the previous record
  std::uint32_t stream = 0;    ///< index into TraceInfo::streams
  std::uint32_t count = 0;     ///< examples in the payload
  double hint = 0.0;           ///< admission severity hint
  std::vector<std::uint8_t> payload;  ///< the domain codec's batch encoding
};

/// Streams batches into a trace file. Open -> Append... -> Finish;
/// destroying an unfinished writer leaves a file whose header says zero
/// records, which readers reject against the trailing data — a crashed
/// recording cannot masquerade as a complete trace.
class TraceWriter {
 public:
  TraceWriter(TraceWriter&&) = default;
  TraceWriter& operator=(TraceWriter&&) = default;

  /// Creates `path` (truncating) and writes the kTraceHeader frame.
  /// `info.records` / `info.examples` are ignored — Finish patches the
  /// real counts. kIoError when the file cannot be created.
  static serve::Result<TraceWriter> Open(const std::string& path,
                                         TraceInfo info);

  /// Appends one record frame. `stream` must index the stream table and
  /// `payload` must be the stream domain codec's encoding of `count`
  /// examples (kInvalidArgument otherwise; kIoError on write failure).
  serve::Result<bool> Append(std::uint32_t stream, std::uint64_t delta_ns,
                             std::uint32_t count, double hint,
                             std::span<const std::uint8_t> payload);

  /// Rewrites the header frame with the final record/example counts and
  /// closes the file. The header frame's size is count-independent, so
  /// the patch is an in-place overwrite at offset 0.
  serve::Result<bool> Finish();

  std::uint64_t records() const { return records_; }
  std::uint64_t examples() const { return examples_; }

 private:
  TraceWriter() = default;

  TraceInfo info_;
  std::ofstream out_;
  std::uint64_t records_ = 0;
  std::uint64_t examples_ = 0;
  bool finished_ = false;
};

/// Decodes a trace file. The whole file is read into memory at Open (the
/// shipped traces are small; soak replays loop one in-memory trace), and
/// every decode error carries the failing frame's byte offset.
class TraceReader {
 public:
  TraceReader(TraceReader&&) = default;
  TraceReader& operator=(TraceReader&&) = default;

  /// Reads `path` and decodes + validates the kTraceHeader frame. Typed
  /// errors: kIoError (unreadable), kTruncatedFrame / kBadMagic /
  /// kCrcMismatch / ... (wire-level, positioned), kMalformedPayload
  /// (header payload undecodable or version unsupported).
  static serve::Result<TraceReader> Open(const std::string& path);

  const TraceInfo& info() const { return info_; }

  /// Decodes the next record. Empty optional at a *clean* end of trace
  /// (exactly info().records records and info().examples examples seen,
  /// no trailing bytes); positioned typed errors otherwise, including
  /// kTruncatedFrame when the file ends early against the header's count.
  serve::Result<std::optional<TraceRecord>> Next();

  /// Rewinds to the first record (for multi-pass replays — soak loops).
  void Rewind();

  /// Byte offset the next frame decode starts at.
  std::size_t offset() const { return offset_; }

 private:
  TraceReader() = default;

  serve::Error At(serve::ErrorCode code, std::size_t offset,
                  const std::string& message) const;

  std::string path_;
  std::vector<std::uint8_t> bytes_;
  TraceInfo info_;
  std::size_t first_record_offset_ = 0;
  std::size_t offset_ = 0;
  std::uint64_t next_index_ = 0;
  std::uint64_t examples_seen_ = 0;
};

}  // namespace omg::replay
