#include "net/transport.h"

namespace rangeamp::net {

http::Response Transport::transfer(const http::Request& request,
                                   const TransferOptions& options) {
  TransferOutcome outcome = do_transfer_outcome(request, options);
  if (outcome.ok()) return std::move(outcome.response);
  return response_for_failed_outcome(outcome);
}

ExchangeScope::ExchangeScope(Transport& transport, const http::Request& request,
                             std::string_view proto)
    : transport_(&transport),
      span_(transport.tracer(), "net.transfer",
            transport.recorder().segment()) {
  if (span_) {
    if (!proto.empty()) span_.note("proto", proto);
    span_.note("target", request.target);
    if (const auto range = request.headers.get("Range")) {
      span_.note("range", *range);
    }
  }
  // The strings only matter to a retained log; copying a 32 KB OBR Range
  // header per hop into a record that is dropped would be pure waste.
  if (transport.recorder().keep_log()) {
    record.target = request.target;
    record.range_header = std::string{request.headers.get_or("Range", "")};
  }
}

void ExchangeScope::finish() {
  if (finished_) return;
  finished_ = true;
  if (span_) {
    span_.add_bytes(record.bytes);
    span_.set_status(record.status);
    if (record.response_truncated) span_.note("truncated", "true");
    if (record.faulted) span_.note("fault", "hit");
  }
  transport_->recorder().record(std::move(record));
}

}  // namespace rangeamp::net
