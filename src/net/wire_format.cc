#include "net/wire_format.h"

#include <chrono>

#include "common/coding.h"
#include "concealer/epoch_io.h"

namespace concealer {
namespace net {

namespace {

// Bounds on untrusted declared lengths inside payloads, so a hostile
// 4-byte count cannot drive a multi-gigabyte allocation before the real
// data is even inspected. (Frame-level size is bounded separately by
// ServerOptions::max_frame_bytes.)
constexpr uint32_t kMaxVecLen = 1u << 20;

bool GetString(Slice src, size_t* off, std::string* out) {
  Bytes raw;
  if (!GetLengthPrefixed(src, off, &raw)) return false;
  out->assign(raw.begin(), raw.end());
  return true;
}

bool GetU32(Slice src, size_t* off, uint32_t* out) {
  if (*off + 4 > src.size()) return false;
  *out = DecodeFixed32(src.data() + *off);
  *off += 4;
  return true;
}

bool GetU64(Slice src, size_t* off, uint64_t* out) {
  if (*off + 8 > src.size()) return false;
  *out = DecodeFixed64(src.data() + *off);
  *off += 8;
  return true;
}

bool GetBool(Slice src, size_t* off, bool* out) {
  if (*off + 1 > src.size()) return false;
  const uint8_t b = src[*off];
  if (b > 1) return false;  // Strict: a bool is 0 or 1, nothing else.
  *out = b == 1;
  *off += 1;
  return true;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed net message: ") +
                                 what);
}

}  // namespace

uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// --- Whole messages --------------------------------------------------------

Bytes EncodeRequest(const NetHeader& header, Slice payload) {
  Bytes body;
  body.reserve(4 + 4 + 8 + 8 + 4 + header.tenant_id.size() + payload.size());
  PutFixed32(&body, kNetProtoVersion);
  PutFixed32(&body, static_cast<uint32_t>(header.type));
  PutFixed64(&body, header.request_id);
  PutFixed64(&body, header.deadline_unix_ms);
  PutLengthPrefixed(&body, header.tenant_id);
  PutBytes(&body, payload);
  Bytes frame;
  AppendFramedRecord(&frame, body);
  return frame;
}

Bytes EncodeResponse(uint64_t request_id, const Status& status,
                     Slice payload) {
  Bytes body;
  body.reserve(4 + 4 + 8 + 4 + 8 + 4 + status.message().size() + 4 +
               payload.size());
  PutFixed32(&body, kNetProtoVersion);
  PutFixed32(&body, static_cast<uint32_t>(MsgType::kResponse));
  PutFixed64(&body, request_id);
  PutFixed32(&body, StatusCodeToWire(status.code()));
  PutFixed64(&body, status.retry_after_ms());
  PutLengthPrefixed(&body, status.message());
  PutLengthPrefixed(&body, payload);
  Bytes frame;
  AppendFramedRecord(&frame, body);
  return frame;
}

StatusOr<ParsedRequest> ParseRequest(Slice body) {
  size_t off = 0;
  uint32_t proto = 0, type = 0;
  if (!GetU32(body, &off, &proto)) return Malformed("truncated header");
  if (proto != kNetProtoVersion) {
    return Status::InvalidArgument("unsupported net protocol version " +
                                   std::to_string(proto));
  }
  ParsedRequest req;
  if (!GetU32(body, &off, &type) ||
      !GetU64(body, &off, &req.header.request_id) ||
      !GetU64(body, &off, &req.header.deadline_unix_ms) ||
      !GetString(body, &off, &req.header.tenant_id)) {
    return Malformed("truncated header");
  }
  switch (static_cast<MsgType>(type)) {
    case MsgType::kOpenSession:
    case MsgType::kQuery:
    case MsgType::kQueryBatch:
    case MsgType::kIngestEpoch:
    case MsgType::kHealth:
    case MsgType::kCloseSession:
    case MsgType::kCreateTenant:
    case MsgType::kLoadRegistry:
    case MsgType::kSetDynamicMode:
      break;
    default:
      return Malformed("unknown message type");
  }
  req.header.type = static_cast<MsgType>(type);
  req.payload = Slice(body.data() + off, body.size() - off);
  return req;
}

StatusOr<ParsedResponse> ParseResponse(Slice body) {
  size_t off = 0;
  uint32_t proto = 0, type = 0, code = 0;
  if (!GetU32(body, &off, &proto)) return Malformed("truncated header");
  if (proto != kNetProtoVersion) {
    return Status::InvalidArgument("unsupported net protocol version " +
                                   std::to_string(proto));
  }
  if (!GetU32(body, &off, &type)) return Malformed("truncated header");
  if (static_cast<MsgType>(type) != MsgType::kResponse) {
    return Malformed("expected a response");
  }
  ParsedResponse resp;
  uint64_t retry_after = 0;
  std::string message;
  if (!GetU64(body, &off, &resp.request_id) || !GetU32(body, &off, &code) ||
      !GetU64(body, &off, &retry_after) || !GetString(body, &off, &message) ||
      !GetLengthPrefixed(body, &off, &resp.payload)) {
    return Malformed("truncated response");
  }
  if (off != body.size()) return Malformed("trailing bytes");
  resp.status =
      Status::FromCode(StatusCodeFromWire(code), std::move(message));
  if (retry_after != 0) resp.status.WithRetryAfterMs(retry_after);
  return resp;
}

// --- Query / config --------------------------------------------------------

Bytes SerializeQuery(const Query& query) {
  Bytes out;
  PutFixed32(&out, static_cast<uint32_t>(query.agg));
  PutFixed32(&out, static_cast<uint32_t>(query.key_values.size()));
  for (const auto& coord : query.key_values) {
    PutFixed32(&out, static_cast<uint32_t>(coord.size()));
    for (uint64_t v : coord) PutFixed64(&out, v);
  }
  PutFixed64(&out, query.time_lo);
  PutFixed64(&out, query.time_hi);
  PutLengthPrefixed(&out, query.observation);
  PutFixed32(&out, query.k);
  PutFixed32(&out, query.threshold);
  PutFixed32(&out, static_cast<uint32_t>(query.method));
  out.push_back(query.oblivious ? 1 : 0);
  out.push_back(query.verify ? 1 : 0);
  return out;
}

StatusOr<Query> DeserializeQuery(Slice data) {
  size_t off = 0;
  Query q;
  uint32_t agg = 0, num_coords = 0, method = 0;
  if (!GetU32(data, &off, &agg) ||
      agg > static_cast<uint32_t>(Aggregate::kMax)) {
    return Malformed("query aggregate");
  }
  q.agg = static_cast<Aggregate>(agg);
  if (!GetU32(data, &off, &num_coords) || num_coords > kMaxVecLen) {
    return Malformed("query key count");
  }
  q.key_values.reserve(num_coords);
  for (uint32_t i = 0; i < num_coords; ++i) {
    uint32_t dims = 0;
    if (!GetU32(data, &off, &dims) || dims > kMaxVecLen ||
        off + 8ull * dims > data.size()) {
      return Malformed("query key coordinate");
    }
    std::vector<uint64_t> coord(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      GetU64(data, &off, &coord[d]);
    }
    q.key_values.push_back(std::move(coord));
  }
  Bytes observation;
  if (!GetU64(data, &off, &q.time_lo) || !GetU64(data, &off, &q.time_hi) ||
      !GetLengthPrefixed(data, &off, &observation) ||
      !GetU32(data, &off, &q.k) || !GetU32(data, &off, &q.threshold)) {
    return Malformed("query fields");
  }
  q.observation.assign(observation.begin(), observation.end());
  if (!GetU32(data, &off, &method) ||
      method > static_cast<uint32_t>(RangeMethod::kWinSecRange)) {
    return Malformed("query range method");
  }
  q.method = static_cast<RangeMethod>(method);
  if (!GetBool(data, &off, &q.oblivious) || !GetBool(data, &off, &q.verify)) {
    return Malformed("query flags");
  }
  if (off != data.size()) return Malformed("query trailing bytes");
  return q;
}

Bytes SerializeConfig(const ConcealerConfig& config) {
  Bytes out;
  PutFixed32(&out, static_cast<uint32_t>(config.key_buckets.size()));
  for (uint32_t b : config.key_buckets) PutFixed32(&out, b);
  PutFixed32(&out, static_cast<uint32_t>(config.key_domains.size()));
  for (uint64_t d : config.key_domains) PutFixed64(&out, d);
  PutFixed32(&out, config.time_buckets);
  PutFixed32(&out, config.num_cell_ids);
  PutFixed64(&out, config.epoch_seconds);
  PutFixed64(&out, config.time_quantum);
  out.push_back(config.equal_fake_tuples ? 1 : 0);
  out.push_back(config.make_hash_chains ? 1 : 0);
  PutFixed32(&out, config.winsec_lambda_buckets);
  out.push_back(config.use_bfd ? 1 : 0);
  return out;
}

StatusOr<ConcealerConfig> DeserializeConfig(Slice data) {
  size_t off = 0;
  ConcealerConfig c;
  uint32_t n = 0;
  if (!GetU32(data, &off, &n) || n > kMaxVecLen ||
      off + 4ull * n > data.size()) {
    return Malformed("config key buckets");
  }
  c.key_buckets.resize(n);
  for (uint32_t i = 0; i < n; ++i) GetU32(data, &off, &c.key_buckets[i]);
  if (!GetU32(data, &off, &n) || n > kMaxVecLen ||
      off + 8ull * n > data.size()) {
    return Malformed("config key domains");
  }
  c.key_domains.resize(n);
  for (uint32_t i = 0; i < n; ++i) GetU64(data, &off, &c.key_domains[i]);
  if (!GetU32(data, &off, &c.time_buckets) ||
      !GetU32(data, &off, &c.num_cell_ids) ||
      !GetU64(data, &off, &c.epoch_seconds) ||
      !GetU64(data, &off, &c.time_quantum) ||
      !GetBool(data, &off, &c.equal_fake_tuples) ||
      !GetBool(data, &off, &c.make_hash_chains) ||
      !GetU32(data, &off, &c.winsec_lambda_buckets) ||
      !GetBool(data, &off, &c.use_bfd)) {
    return Malformed("config fields");
  }
  if (off != data.size()) return Malformed("config trailing bytes");
  return c;
}

// --- Type-specific payloads ------------------------------------------------

Bytes EncodeOpenSessionReq(const OpenSessionReq& req) {
  Bytes out;
  PutLengthPrefixed(&out, req.user_id);
  PutLengthPrefixed(&out, req.proof);
  return out;
}

StatusOr<OpenSessionReq> ParseOpenSessionReq(Slice payload) {
  size_t off = 0;
  OpenSessionReq req;
  if (!GetString(payload, &off, &req.user_id) ||
      !GetLengthPrefixed(payload, &off, &req.proof) ||
      off != payload.size()) {
    return Malformed("open-session payload");
  }
  return req;
}

Bytes EncodeQueryReq(const QueryReq& req) {
  Bytes out;
  PutLengthPrefixed(&out, req.token);
  out.push_back(req.encrypted ? 1 : 0);
  PutLengthPrefixed(&out, SerializeQuery(req.query));
  return out;
}

StatusOr<QueryReq> ParseQueryReq(Slice payload) {
  size_t off = 0;
  QueryReq req;
  Slice query_bytes;
  if (!GetString(payload, &off, &req.token) ||
      !GetBool(payload, &off, &req.encrypted) ||
      !GetLengthPrefixedView(payload, &off, &query_bytes) ||
      off != payload.size()) {
    return Malformed("query payload");
  }
  auto query = DeserializeQuery(query_bytes);
  if (!query.ok()) return query.status();
  req.query = std::move(*query);
  return req;
}

Bytes EncodeQueryBatchReq(const QueryBatchReq& req) {
  Bytes out;
  PutFixed32(&out, static_cast<uint32_t>(req.queries.size()));
  for (const QueryReq& q : req.queries) {
    PutLengthPrefixed(&out, EncodeQueryReq(q));
  }
  return out;
}

StatusOr<QueryBatchReq> ParseQueryBatchReq(Slice payload) {
  size_t off = 0;
  uint32_t n = 0;
  if (!GetU32(payload, &off, &n) || n > kMaxVecLen) {
    return Malformed("batch count");
  }
  QueryBatchReq req;
  req.queries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice item;
    if (!GetLengthPrefixedView(payload, &off, &item)) {
      return Malformed("batch item");
    }
    auto parsed = ParseQueryReq(item);
    if (!parsed.ok()) return parsed.status();
    req.queries.push_back(std::move(*parsed));
  }
  if (off != payload.size()) return Malformed("batch trailing bytes");
  return req;
}

Bytes EncodeBatchItems(const std::vector<BatchItem>& items) {
  Bytes out;
  PutFixed32(&out, static_cast<uint32_t>(items.size()));
  for (const BatchItem& item : items) {
    PutFixed32(&out, StatusCodeToWire(item.status.code()));
    PutFixed64(&out, item.status.retry_after_ms());
    PutLengthPrefixed(&out, item.status.message());
    PutLengthPrefixed(&out, item.result);
  }
  return out;
}

StatusOr<std::vector<BatchItem>> ParseBatchItems(Slice payload) {
  size_t off = 0;
  uint32_t n = 0;
  if (!GetU32(payload, &off, &n) || n > kMaxVecLen) {
    return Malformed("batch result count");
  }
  std::vector<BatchItem> items;
  items.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    uint64_t retry_after = 0;
    std::string message;
    BatchItem item;
    if (!GetU32(payload, &off, &code) || !GetU64(payload, &off, &retry_after) ||
        !GetString(payload, &off, &message) ||
        !GetLengthPrefixed(payload, &off, &item.result)) {
      return Malformed("batch result item");
    }
    item.status =
        Status::FromCode(StatusCodeFromWire(code), std::move(message));
    if (retry_after != 0) item.status.WithRetryAfterMs(retry_after);
    items.push_back(std::move(item));
  }
  if (off != payload.size()) return Malformed("batch result trailing bytes");
  return items;
}

Bytes EncodeCloseSessionReq(const CloseSessionReq& req) {
  Bytes out;
  PutLengthPrefixed(&out, req.token);
  return out;
}

StatusOr<CloseSessionReq> ParseCloseSessionReq(Slice payload) {
  size_t off = 0;
  CloseSessionReq req;
  if (!GetString(payload, &off, &req.token) || off != payload.size()) {
    return Malformed("close-session payload");
  }
  return req;
}

Bytes EncodeCreateTenantReq(const CreateTenantReq& req) {
  Bytes out;
  PutLengthPrefixed(&out, SerializeConfig(req.config));
  PutLengthPrefixed(&out, req.sk);
  PutFixed32(&out, req.qos_weight);
  PutFixed32(&out, req.qos_max_inflight);
  return out;
}

StatusOr<CreateTenantReq> ParseCreateTenantReq(Slice payload) {
  size_t off = 0;
  Slice config_bytes;
  CreateTenantReq req;
  if (!GetLengthPrefixedView(payload, &off, &config_bytes) ||
      !GetLengthPrefixed(payload, &off, &req.sk) ||
      !GetU32(payload, &off, &req.qos_weight) ||
      !GetU32(payload, &off, &req.qos_max_inflight) ||
      off != payload.size()) {
    return Malformed("create-tenant payload");
  }
  auto config = DeserializeConfig(config_bytes);
  if (!config.ok()) return config.status();
  req.config = std::move(*config);
  return req;
}

Bytes EncodeSetDynamicModeReq(const SetDynamicModeReq& req) {
  Bytes out;
  out.push_back(req.dynamic ? 1 : 0);
  return out;
}

StatusOr<SetDynamicModeReq> ParseSetDynamicModeReq(Slice payload) {
  size_t off = 0;
  SetDynamicModeReq req;
  if (!GetBool(payload, &off, &req.dynamic) || off != payload.size()) {
    return Malformed("set-dynamic-mode payload");
  }
  return req;
}

Bytes EncodeHealthInfo(const HealthInfo& info) {
  Bytes out;
  out.push_back(info.draining ? 1 : 0);
  PutFixed64(&out, info.inflight);
  PutFixed64(&out, info.open_connections);
  PutFixed32(&out, static_cast<uint32_t>(info.tenants.size()));
  for (const auto& tenant : info.tenants) {
    PutLengthPrefixed(&out, tenant.tenant_id);
    PutFixed32(&out, tenant.recovery_code);
    PutLengthPrefixed(&out, tenant.recovery_message);
  }
  return out;
}

StatusOr<HealthInfo> ParseHealthInfo(Slice payload) {
  size_t off = 0;
  HealthInfo info;
  uint32_t n = 0;
  if (!GetBool(payload, &off, &info.draining) ||
      !GetU64(payload, &off, &info.inflight) ||
      !GetU64(payload, &off, &info.open_connections) ||
      !GetU32(payload, &off, &n) || n > kMaxVecLen) {
    return Malformed("health payload");
  }
  info.tenants.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    HealthInfo::Tenant tenant;
    if (!GetString(payload, &off, &tenant.tenant_id) ||
        !GetU32(payload, &off, &tenant.recovery_code) ||
        !GetString(payload, &off, &tenant.recovery_message)) {
      return Malformed("health tenant entry");
    }
    info.tenants.push_back(std::move(tenant));
  }
  if (off != payload.size()) return Malformed("health trailing bytes");
  return info;
}

}  // namespace net
}  // namespace concealer
