#include "net/wire.h"

#include <gtest/gtest.h>

#include "http/serialize.h"

namespace rangeamp::net {
namespace {

using http::Body;
using http::Request;
using http::Response;

// A handler returning a canned response and remembering what it saw.
class StubHandler final : public HttpHandler {
 public:
  explicit StubHandler(Response response) : response_(std::move(response)) {}

  Response handle(const Request& request) override {
    requests.push_back(request);
    return response_;
  }

  std::vector<Request> requests;

 private:
  Response response_;
};

Response canned(std::uint64_t body_size) {
  Response resp = http::make_response(http::kOk, Body::synthetic(3, 0, body_size));
  return resp;
}

TEST(Wire, CountsExactSerializedBytes) {
  StubHandler stub(canned(100));
  TrafficRecorder rec("seg");
  Wire wire(rec, stub);

  Request req = http::make_get("h.example", "/x");
  req.headers.add("Range", "bytes=0-0");
  const Response resp = wire.transfer(req);

  EXPECT_EQ(rec.request_bytes(), http::serialized_size(req));
  EXPECT_EQ(rec.response_bytes(), http::serialized_size(resp));
  EXPECT_EQ(rec.exchange_count(), 1u);
  EXPECT_EQ(rec.total_bytes(), rec.request_bytes() + rec.response_bytes());
  ASSERT_EQ(rec.log().size(), 1u);
  EXPECT_EQ(rec.log()[0].target, "/x");
  EXPECT_EQ(rec.log()[0].range_header, "bytes=0-0");
  EXPECT_EQ(rec.log()[0].status, 200);
  EXPECT_FALSE(rec.log()[0].response_truncated);
}

TEST(Wire, AccumulatesAcrossExchanges) {
  StubHandler stub(canned(10));
  TrafficRecorder rec;
  Wire wire(rec, stub);
  const Request req = http::make_get("h", "/a");
  wire.transfer(req);
  wire.transfer(req);
  wire.transfer(req);
  EXPECT_EQ(rec.exchange_count(), 3u);
  EXPECT_EQ(rec.request_bytes(), 3 * http::serialized_size(req));
}

TEST(Wire, AbortAfterBodyBytesTruncatesBodyAndAccounting) {
  StubHandler stub(canned(1000));
  TrafficRecorder rec;
  Wire wire(rec, stub);

  TransferOptions options;
  options.abort_after_body_bytes = 100;
  const Request req = http::make_get("h", "/a");
  const Response resp = wire.transfer(req, options);

  EXPECT_EQ(resp.body.size(), 100u);
  // Headers counted in full, body only up to the abort point.
  const Response full = canned(1000);
  EXPECT_EQ(rec.response_bytes(), http::serialized_size(full) - 900);
  ASSERT_EQ(rec.log().size(), 1u);
  EXPECT_TRUE(rec.log()[0].response_truncated);
}

TEST(Wire, AbortBeyondBodyIsNoop) {
  StubHandler stub(canned(50));
  TrafficRecorder rec;
  Wire wire(rec, stub);
  TransferOptions options;
  options.abort_after_body_bytes = 5000;
  const Response resp = wire.transfer(http::make_get("h", "/a"), options);
  EXPECT_EQ(resp.body.size(), 50u);
  EXPECT_FALSE(rec.log()[0].response_truncated);
}

TEST(Wire, HeadOnlyReceivesNoBody) {
  StubHandler stub(canned(777));
  TrafficRecorder rec;
  Wire wire(rec, stub);
  TransferOptions options;
  options.head_only = true;
  const Response resp = wire.transfer(http::make_get("h", "/a"), options);
  EXPECT_EQ(resp.body.size(), 0u);
  const Response full = canned(777);
  EXPECT_EQ(rec.response_bytes(), http::serialized_size(full) - 777);
}

TEST(Wire, RecorderResetAndLogToggle) {
  StubHandler stub(canned(10));
  TrafficRecorder rec;
  rec.set_keep_log(false);
  Wire wire(rec, stub);
  wire.transfer(http::make_get("h", "/a"));
  EXPECT_TRUE(rec.log().empty());
  EXPECT_GT(rec.total_bytes(), 0u);
  rec.reset();
  EXPECT_EQ(rec.total_bytes(), 0u);
  EXPECT_EQ(rec.exchange_count(), 0u);
}

TEST(Wire, LogToggledBackOnRecordsTargetAndRange) {
  // Records skip their strings while the log is off; once it is back on,
  // the retained record carries both again.
  StubHandler stub(canned(10));
  TrafficRecorder rec;
  Wire wire(rec, stub);
  Request req = http::make_get("h", "/r");
  req.headers.add("Range", "bytes=0-,0-,0-");
  rec.set_keep_log(false);
  wire.transfer(req);
  rec.set_keep_log(true);
  wire.transfer(req);
  EXPECT_EQ(rec.exchange_count(), 2u);
  ASSERT_EQ(rec.log().size(), 1u);
  EXPECT_EQ(rec.log()[0].target, "/r");
  EXPECT_EQ(rec.log()[0].range_header, "bytes=0-,0-,0-");
}

TEST(WireHandler, ComposesAsHandler) {
  StubHandler stub(canned(10));
  TrafficRecorder inner_rec("inner");
  WireHandler inner(inner_rec, stub);
  TrafficRecorder outer_rec("outer");
  Wire outer(outer_rec, inner);

  const Request req = http::make_get("h", "/a");
  outer.transfer(req);
  // Both segments saw the same exchange.
  EXPECT_EQ(inner_rec.exchange_count(), 1u);
  EXPECT_EQ(outer_rec.exchange_count(), 1u);
  EXPECT_EQ(inner_rec.request_bytes(), outer_rec.request_bytes());
}

}  // namespace
}  // namespace rangeamp::net
