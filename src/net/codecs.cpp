// The shipped domains' wire codecs (see net/codec.hpp for the contract).
//
// Encodings are flat little-endian field dumps in declaration order;
// variable-length members carry a u32 count prefix. Counts are bounded
// before allocation so a corrupted prefix cannot balloon the decoder.
#include "net/codec.hpp"

#include <algorithm>
#include <utility>

#include "av/factory.hpp"
#include "common/check.hpp"
#include "ecg/factory.hpp"
#include "geometry/box.hpp"
#include "serve/domain_registry.hpp"
#include "tvnews/factory.hpp"
#include "video/factory.hpp"

namespace omg::net {

namespace {

/// Most entries a nested list (detections, faces...) may declare.
constexpr std::uint32_t kMaxListEntries = 1 << 16;

void EncodeBox(const geometry::Box2D& box, WireWriter& out) {
  out.F64(box.x_min);
  out.F64(box.y_min);
  out.F64(box.x_max);
  out.F64(box.y_max);
}

bool DecodeBox(WireReader& in, geometry::Box2D& box) {
  return in.F64(box.x_min) && in.F64(box.y_min) && in.F64(box.x_max) &&
         in.F64(box.y_max);
}

void EncodeDetection(const geometry::Detection& detection, WireWriter& out) {
  EncodeBox(detection.box, out);
  out.String(detection.label);
  out.F64(detection.confidence);
  out.I64(detection.truth_id);
}

bool DecodeDetection(WireReader& in, geometry::Detection& detection) {
  return DecodeBox(in, detection.box) && in.String(detection.label) &&
         in.F64(detection.confidence) && in.I64(detection.truth_id);
}

/// Reads a u32 list count and reserves `list` for it; false when the count
/// is missing or absurd.
template <typename T>
bool DecodeListCount(WireReader& in, std::vector<T>& list) {
  std::uint32_t count;
  if (!in.U32(count) || count > kMaxListEntries) return false;
  list.clear();
  list.reserve(count);
  list.resize(count);
  return true;
}

// ------------------------------------------------------------------ video ---

void EncodeVideo(const video::VideoExample& example, WireWriter& out) {
  out.U64(example.frame_index);
  out.F64(example.timestamp);
  out.U32(static_cast<std::uint32_t>(example.detections.size()));
  for (const geometry::Detection& detection : example.detections) {
    EncodeDetection(detection, out);
  }
}

bool DecodeVideo(WireReader& in, video::VideoExample& example) {
  std::uint64_t frame_index;
  if (!in.U64(frame_index) || !in.F64(example.timestamp)) return false;
  example.frame_index = frame_index;
  if (!DecodeListCount(in, example.detections)) return false;
  for (geometry::Detection& detection : example.detections) {
    if (!DecodeDetection(in, detection)) return false;
  }
  return true;
}

// --------------------------------------------------------------------- av ---

void EncodeAv(const av::AvExample& example, WireWriter& out) {
  out.U64(example.sample_index);
  out.F64(example.timestamp);
  out.String(example.scene);
  out.U32(static_cast<std::uint32_t>(example.camera.size()));
  for (const geometry::Detection& detection : example.camera) {
    EncodeDetection(detection, out);
  }
  out.U32(static_cast<std::uint32_t>(example.lidar_projected.size()));
  for (const geometry::Box2D& box : example.lidar_projected) {
    EncodeBox(box, out);
  }
}

bool DecodeAv(WireReader& in, av::AvExample& example) {
  std::uint64_t sample_index;
  if (!in.U64(sample_index) || !in.F64(example.timestamp) ||
      !in.String(example.scene)) {
    return false;
  }
  example.sample_index = sample_index;
  if (!DecodeListCount(in, example.camera)) return false;
  for (geometry::Detection& detection : example.camera) {
    if (!DecodeDetection(in, detection)) return false;
  }
  if (!DecodeListCount(in, example.lidar_projected)) return false;
  for (geometry::Box2D& box : example.lidar_projected) {
    if (!DecodeBox(in, box)) return false;
  }
  return true;
}

// -------------------------------------------------------------------- ecg ---

void EncodeEcg(const ecg::EcgExample& example, WireWriter& out) {
  out.String(example.record);
  out.F64(example.timestamp);
  out.U8(static_cast<std::uint8_t>(example.predicted));
}

bool DecodeEcg(WireReader& in, ecg::EcgExample& example) {
  std::uint8_t predicted;
  if (!in.String(example.record) || !in.F64(example.timestamp) ||
      !in.U8(predicted) || predicted >= ecg::kNumRhythms) {
    return false;
  }
  example.predicted = static_cast<ecg::Rhythm>(predicted);
  return true;
}

// ----------------------------------------------------------------- tvnews ---

void EncodeFace(const tvnews::FaceOutput& face, WireWriter& out) {
  EncodeBox(face.box, out);
  out.String(face.identity);
  out.String(face.gender);
  out.String(face.hair);
  out.I64(face.person_id);
  out.String(face.true_identity);
  out.String(face.true_gender);
  out.String(face.true_hair);
}

bool DecodeFace(WireReader& in, tvnews::FaceOutput& face) {
  return DecodeBox(in, face.box) && in.String(face.identity) &&
         in.String(face.gender) && in.String(face.hair) &&
         in.I64(face.person_id) && in.String(face.true_identity) &&
         in.String(face.true_gender) && in.String(face.true_hair);
}

void EncodeNews(const tvnews::NewsFrame& frame, WireWriter& out) {
  out.U64(frame.index);
  out.F64(frame.timestamp);
  out.I64(frame.scene_id);
  out.U32(static_cast<std::uint32_t>(frame.faces.size()));
  for (const tvnews::FaceOutput& face : frame.faces) EncodeFace(face, out);
}

bool DecodeNews(WireReader& in, tvnews::NewsFrame& frame) {
  std::uint64_t index;
  if (!in.U64(index) || !in.F64(frame.timestamp) ||
      !in.I64(frame.scene_id)) {
    return false;
  }
  frame.index = index;
  if (!DecodeListCount(in, frame.faces)) return false;
  for (tvnews::FaceOutput& face : frame.faces) {
    if (!DecodeFace(in, face)) return false;
  }
  return true;
}

/// Builds a PayloadCodec over one domain's typed encode/decode pair. The
/// decoder fills a payload constructed in place inside the appended
/// AnyExample — the batch ObserveBatch consumes, with no typed copy.
template <typename T>
PayloadCodec MakeCodec(void (*encode)(const T&, WireWriter&),
                       bool (*decode)(WireReader&, T&)) {
  PayloadCodec codec;
  codec.domain = std::string(serve::DomainTraits<T>::kDomain);
  codec.encode = [encode](const serve::AnyExample& example,
                          WireWriter& out) {
    encode(example.Get<T>(), out);
  };
  codec.decode = [decode](WireReader& in,
                          std::vector<serve::AnyExample>& out) {
    serve::AnyExample& holder = out.emplace_back();
    holder.Emplace<T>();
    if (!decode(in, *holder.TryGetMutable<T>())) {
      out.pop_back();
      return false;
    }
    return true;
  };
  return codec;
}

}  // namespace

std::vector<std::uint8_t> EncodeBatch(
    const PayloadCodec& codec, std::span<const serve::AnyExample> batch) {
  WireWriter out;
  for (const serve::AnyExample& example : batch) {
    codec.encode(example, out);
  }
  return std::move(out.buffer());
}

serve::Result<std::vector<serve::AnyExample>> DecodeBatch(
    const PayloadCodec& codec, std::span<const std::uint8_t> payload,
    std::uint32_t count) {
  if (count > kMaxExamplesPerFrame) {
    return serve::Error{serve::ErrorCode::kMalformedPayload,
                        "frame claims " + std::to_string(count) +
                            " examples (limit " +
                            std::to_string(kMaxExamplesPerFrame) + ")"};
  }
  WireReader reader(payload);
  std::vector<serve::AnyExample> batch;
  // Every shipped codec encodes at least 13 bytes per example, so no valid
  // payload carries more examples than bytes; reserving a larger claimed
  // count would let a short frame allocate a holder per claimed example.
  batch.reserve(std::min<std::size_t>(count, payload.size()));
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!codec.decode(reader, batch)) {
      return serve::Error{serve::ErrorCode::kMalformedPayload,
                          "'" + codec.domain + "' payload malformed at "
                              "example " + std::to_string(i) + " of " +
                              std::to_string(count)};
    }
  }
  if (!reader.AtEnd()) {
    return serve::Error{serve::ErrorCode::kMalformedPayload,
                        "'" + codec.domain + "' payload carries " +
                            std::to_string(reader.remaining()) +
                            " trailing bytes"};
  }
  return batch;
}

void RegisterDefaultCodecs(serve::DomainRegistry& registry) {
  const auto install = [&registry](PayloadCodec codec) {
    if (!registry.Has(codec.domain)) return;  // subset registries
    const std::string domain = codec.domain;
    registry.SetCodec(domain,
                      std::make_shared<const PayloadCodec>(std::move(codec)));
  };
  install(MakeCodec<video::VideoExample>(&EncodeVideo, &DecodeVideo));
  install(MakeCodec<av::AvExample>(&EncodeAv, &DecodeAv));
  install(MakeCodec<ecg::EcgExample>(&EncodeEcg, &DecodeEcg));
  install(MakeCodec<tvnews::NewsFrame>(&EncodeNews, &DecodeNews));
}

}  // namespace omg::net
