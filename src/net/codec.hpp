// Per-domain payload codecs: typed examples <-> DATA-frame payload bytes.
//
// A PayloadCodec is the wire-format sibling of a DomainTraits
// specialization: where the traits teach serve::AnyExample to *hold* a
// domain's example type, the codec teaches the net layer to *transport* it.
// Codecs live in the serve::DomainRegistry next to the suite builders
// (DomainRegistry::SetCodec), so one registry answers both "how do I score
// this domain" and "how do I decode its frames".
//
// Round-trip guarantee: for every shipped domain, Decode(Encode(batch))
// reproduces the batch field-for-field under the same wire version
// (tests/test_net.cpp pins this). Decoding never aborts — malformed bytes
// are a typed kMalformedPayload, a foreign domain tag kUnknownDomain.
//
// Decoded examples are constructed straight into AnyExample holders
// (Emplace, then decoded in place), so a received batch goes payload view ->
// AnyExample vector -> Monitor::ObserveBatch with no intermediate typed
// copy. The payload a server decodes is a view into its connection's
// FrameAssembler buffer, valid until the next Feed (net/wire.hpp); the one
// byte copy on the receive path is Feed's, from the recv buffer into that
// assembler buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "serve/any_example.hpp"
#include "serve/result.hpp"

namespace omg::serve {
class DomainRegistry;
}  // namespace omg::serve

namespace omg::net {

/// Most examples one DATA frame may carry (bounds decoder allocation from
/// a corrupted count; far above any real batch — shard queues cap batches
/// orders of magnitude earlier).
inline constexpr std::uint32_t kMaxExamplesPerFrame = 1 << 20;

/// One domain's wire codec; see the file comment.
struct PayloadCodec {
  /// The DomainTraits tag this codec transports ("video").
  std::string domain;
  /// Appends `example`'s payload encoding to `out`. The example must hold
  /// this codec's payload type (a foreign example throws CheckError —
  /// senders validate domains before encoding).
  std::function<void(const serve::AnyExample&, WireWriter&)> encode;
  /// Decodes one example from `in`, appending it to `out`. Returns false
  /// on malformed bytes, leaving `out` as it was.
  std::function<bool(WireReader&, std::vector<serve::AnyExample>&)> decode;
};

/// Encodes `batch` (all of `codec`'s domain) as a DATA payload.
std::vector<std::uint8_t> EncodeBatch(
    const PayloadCodec& codec, std::span<const serve::AnyExample> batch);

/// Decodes a DATA payload of exactly `count` examples. Typed errors:
/// kMalformedPayload (bad bytes, trailing garbage, or an absurd count).
/// Reserves at most one holder per payload byte before decoding, so a
/// frame claiming more examples than it has bytes cannot inflate it.
serve::Result<std::vector<serve::AnyExample>> DecodeBatch(
    const PayloadCodec& codec, std::span<const std::uint8_t> payload,
    std::uint32_t count);

/// Installs the shipped codecs (video, av, ecg, tvnews) on their registered
/// domains. serve::MakeDefaultDomainRegistry calls this; custom registries
/// hosting a subset call it after registering their domains (codecs for
/// unregistered domains are skipped).
void RegisterDefaultCodecs(serve::DomainRegistry& registry);

}  // namespace omg::net
