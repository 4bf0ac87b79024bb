#include "dist/worker_node.h"

#include <utility>

namespace diffpattern::dist {

WorkerNode::WorkerNode(std::string name, LoopbackTransport& transport,
                       service::ServiceConfig config)
    : name_(std::move(name)), transport_(&transport), service_(config) {
  transport_->register_endpoint(
      name_, [this](const Bytes& request) { return handle(request); });
}

WorkerNode::WorkerNode(std::string name, service::ServiceConfig config)
    : name_(std::move(name)), transport_(nullptr), service_(config) {}

WorkerNode::~WorkerNode() {
  if (transport_ != nullptr) {
    transport_->unregister_endpoint(name_);
  }
}

WorkerHealth WorkerNode::health_snapshot() {
  return health_from_counters(name_, service_.counters());
}

Bytes WorkerNode::handle(const Bytes& request) {
  wire_.calls.add();
  const auto type = peek_type(request);
  if (!type.ok()) {
    wire_.decode_errors.add();
    return encode_status(type.status());
  }
  switch (type.value()) {
    case MessageType::kGenerateRequest:
      return handle_generate(request);
    case MessageType::kGenerateStreamRequest:
      return handle_stream(request);
    case MessageType::kHealthProbe:
      wire_.health_probes.add();
      return encode_worker_health(health_snapshot());
    default:
      wire_.decode_errors.add();
      return encode_status(common::Status::InvalidArgument(
          "worker cannot serve message type " +
          std::to_string(static_cast<std::uint16_t>(type.value()))));
  }
}

Bytes WorkerNode::handle_generate(const Bytes& frame) {
  auto request = decode_generate_request(frame);
  if (!request.ok()) {
    wire_.decode_errors.add();
    return encode_status(request.status());
  }
  wire_.generate_calls.add();
  auto result = service_.generate(request.value());
  if (!result.ok()) {
    // Rejections (including sheds carrying retry_after hints) travel as a
    // bare Status frame; the hint survives the wire round trip.
    return encode_status(result.status());
  }
  return encode_generate_result(result.value());
}

Bytes WorkerNode::handle_stream(const Bytes& frame) {
  auto request = decode_generate_request(frame);
  if (!request.ok()) {
    wire_.decode_errors.add();
    return encode_status(request.status());
  }
  wire_.stream_calls.add();
  // The loopback transport answers with one buffer, so the stream frames
  // are concatenated in delivery order; the terminating StreamEnd carries
  // the final status — including the retry_after hint when admission shed
  // the stream — so streaming clients back off identically to blocking
  // ones.
  Bytes out;
  auto stats = service_.generate_stream(
      request.value(), [&out](const service::StreamedPattern& slot) {
        const Bytes encoded = encode_streamed_pattern(slot);
        out.insert(out.end(), encoded.begin(), encoded.end());
      });
  const Bytes end =
      stats.ok() ? encode_stream_end(common::Status::Ok(), stats.value())
                 : encode_stream_end(stats.status(), service::GenerateStats{});
  out.insert(out.end(), end.begin(), end.end());
  return out;
}

}  // namespace diffpattern::dist
