#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "concealer/epoch_io.h"
#include "concealer/wire.h"
#include "net/net_fault.h"

namespace concealer {
namespace net {
namespace {

uint64_t MonotonicMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status ConnLost(const char* what) {
  return Status::Unavailable(std::string("connection lost (") + what + "): " +
                             ::strerror(errno));
}

}  // namespace

ConcealerClient::ConcealerClient(ClientOptions options)
    : options_(std::move(options)) {}

ConcealerClient::~ConcealerClient() { Disconnect(); }

ConcealerClient::ConcealerClient(ConcealerClient&& other) noexcept
    : options_(std::move(other.options_)),
      fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      dialed_(other.dialed_),
      next_request_id_(other.next_request_id_),
      recv_buf_(std::move(other.recv_buf_)) {
  other.fd_ = -1;
  other.dialed_ = false;
}

ConcealerClient& ConcealerClient::operator=(ConcealerClient&& other) noexcept {
  if (this == &other) return *this;
  Disconnect();
  options_ = std::move(other.options_);
  fd_ = other.fd_;
  host_ = std::move(other.host_);
  port_ = other.port_;
  dialed_ = other.dialed_;
  next_request_id_ = other.next_request_id_;
  recv_buf_ = std::move(other.recv_buf_);
  other.fd_ = -1;
  other.dialed_ = false;
  return *this;
}

void ConcealerClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recv_buf_.clear();
}

Status ConcealerClient::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  host_ = host;
  port_ = port;
  dialed_ = true;
  return Reconnect();
}

Status ConcealerClient::Reconnect() {
  if (!dialed_) {
    return Status::FailedPrecondition("no Connect target to redial");
  }
  Disconnect();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket: " + std::string(::strerror(errno)));
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + host_ + "'");
  }
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc < 0 && errno == EINPROGRESS) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    rc = ::poll(&pfd, 1, static_cast<int>(options_.connect_timeout_ms));
    if (rc <= 0) {
      ::close(fd);
      return Status::Unavailable("connect timeout to " + host_ + ":" +
                                 std::to_string(port_));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      errno = err;
      return Status::Unavailable("connect to " + host_ + ":" +
                                 std::to_string(port_) + ": " +
                                 ::strerror(err));
    }
  } else if (rc < 0) {
    ::close(fd);
    return Status::Unavailable("connect to " + host_ + ":" +
                               std::to_string(port_) + ": " +
                               ::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

// --- Wire plumbing ---------------------------------------------------------

Status ConcealerClient::WaitFd(bool want_write, uint64_t deadline_mono_ms) {
  uint64_t now = MonotonicMs();
  if (now >= deadline_mono_ms) {
    return Status::Unavailable("wire timeout");
  }
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = want_write ? POLLOUT : POLLIN;
  int rc = ::poll(&pfd, 1, static_cast<int>(deadline_mono_ms - now));
  if (rc < 0) return ConnLost("poll");
  if (rc == 0) return Status::Unavailable("wire timeout");
  return Status::OK();
}

Status ConcealerClient::SendAll(Slice data, uint64_t deadline_mono_ms) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t sent =
        net_fault::Send(fd_, data.data() + off, data.size() - off);
    if (sent > 0) {
      off += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      CONCEALER_RETURN_IF_ERROR(WaitFd(/*want_write=*/true, deadline_mono_ms));
      continue;
    }
    return ConnLost("send");
  }
  return Status::OK();
}

Status ConcealerClient::RecvFrameBody(Bytes* body, uint64_t deadline_mono_ms) {
  uint8_t chunk[64 * 1024];
  for (;;) {
    // A complete frame already buffered?
    uint64_t body_len = 0;
    FramePeek peek = PeekFrameHeader(
        Slice(recv_buf_.data(), recv_buf_.size()), &body_len);
    if (peek == FramePeek::kBadMagic || peek == FramePeek::kBadVersion) {
      return Status::Corruption("response frame mangled (bad header)");
    }
    if (peek == FramePeek::kOk) {
      if (body_len > options_.max_frame_bytes) {
        return Status::Corruption("response frame oversize (" +
                                  std::to_string(body_len) + " bytes)");
      }
      if (recv_buf_.size() >= FramedSize(body_len)) {
        size_t off = 0;
        StatusOr<Slice> parsed = ReadFramedRecord(
            Slice(recv_buf_.data(), recv_buf_.size()), &off);
        if (!parsed.ok()) return parsed.status();
        body->assign(parsed->data(), parsed->data() + parsed->size());
        recv_buf_.erase(recv_buf_.begin(), recv_buf_.begin() + off);
        return Status::OK();
      }
    }
    ssize_t got = net_fault::Recv(fd_, chunk, sizeof(chunk));
    if (got > 0) {
      recv_buf_.insert(recv_buf_.end(), chunk, chunk + got);
      continue;
    }
    if (got == 0) {
      errno = ECONNRESET;
      return ConnLost("recv eof mid-frame");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      CONCEALER_RETURN_IF_ERROR(
          WaitFd(/*want_write=*/false, deadline_mono_ms));
      continue;
    }
    return ConnLost("recv");
  }
}

StatusOr<Bytes> ConcealerClient::Call(MsgType type,
                                      const std::string& tenant_id,
                                      Slice payload,
                                      const CallOptions& call) {
  if (fd_ < 0) {
    return Status::Unavailable("not connected");
  }
  const uint64_t timeout =
      call.timeout_ms != 0 ? call.timeout_ms : options_.call_timeout_ms;
  NetHeader header;
  header.type = type;
  header.request_id = next_request_id_++;
  header.tenant_id = tenant_id;
  // The wire deadline is what the SERVER sheds against; derive it from
  // the same budget that bounds our local wait so both sides give up at
  // the same moment.
  header.deadline_unix_ms =
      call.deadline_unix_ms != 0 ? call.deadline_unix_ms : WallMs() + timeout;
  const uint64_t deadline_mono = MonotonicMs() + timeout;

  Bytes frame = EncodeRequest(header, payload);
  Status sent = SendAll(Slice(frame.data(), frame.size()), deadline_mono);
  if (!sent.ok()) {
    Disconnect();  // Unknown how much left the building: fail closed.
    return sent;
  }
  Bytes body;
  Status received = RecvFrameBody(&body, deadline_mono);
  if (!received.ok()) {
    Disconnect();  // A half-read response frame is unrecoverable.
    return received;
  }
  StatusOr<ParsedResponse> response =
      ParseResponse(Slice(body.data(), body.size()));
  if (!response.ok()) {
    Disconnect();
    return response.status();
  }
  if (response->request_id != header.request_id) {
    Disconnect();  // Stream out of sync with our pipeline of one.
    return Status::Internal("response id mismatch: sent " +
                            std::to_string(header.request_id) + ", got " +
                            std::to_string(response->request_id));
  }
  if (!response->status.ok()) return response->status;
  return std::move(response->payload);
}

// --- RPC surface -----------------------------------------------------------

StatusOr<std::string> ConcealerClient::OpenSession(
    const std::string& tenant_id, const std::string& user_id, Slice proof,
    const CallOptions& call) {
  OpenSessionReq req;
  req.user_id = user_id;
  req.proof.assign(proof.data(), proof.data() + proof.size());
  Bytes payload = EncodeOpenSessionReq(req);
  StatusOr<Bytes> result = Call(MsgType::kOpenSession, tenant_id,
                                Slice(payload.data(), payload.size()), call);
  if (!result.ok()) return result.status();
  return std::string(result->begin(), result->end());
}

Status ConcealerClient::CloseSession(const std::string& tenant_id,
                                     const std::string& token,
                                     const CallOptions& call) {
  CloseSessionReq req;
  req.token = token;
  Bytes payload = EncodeCloseSessionReq(req);
  return Call(MsgType::kCloseSession, tenant_id,
              Slice(payload.data(), payload.size()), call)
      .status();
}

StatusOr<QueryResult> ConcealerClient::Query(const std::string& tenant_id,
                                             const std::string& token,
                                             const concealer::Query& query,
                                             const CallOptions& call) {
  QueryReq req;
  req.token = token;
  req.encrypted = false;
  req.query = query;
  Bytes payload = EncodeQueryReq(req);
  StatusOr<Bytes> result = Call(MsgType::kQuery, tenant_id,
                                Slice(payload.data(), payload.size()), call);
  if (!result.ok()) return result.status();
  return DeserializeQueryResult(Slice(result->data(), result->size()));
}

StatusOr<Bytes> ConcealerClient::QueryEncrypted(const std::string& tenant_id,
                                                const std::string& token,
                                                const concealer::Query& query,
                                                const CallOptions& call) {
  QueryReq req;
  req.token = token;
  req.encrypted = true;
  req.query = query;
  Bytes payload = EncodeQueryReq(req);
  return Call(MsgType::kQuery, tenant_id,
              Slice(payload.data(), payload.size()), call);
}

StatusOr<std::vector<StatusOr<QueryResult>>> ConcealerClient::QueryBatch(
    const std::string& tenant_id, const std::string& token,
    const std::vector<concealer::Query>& queries, const CallOptions& call) {
  QueryBatchReq req;
  req.queries.reserve(queries.size());
  for (const concealer::Query& q : queries) {
    QueryReq one;
    one.token = token;
    one.encrypted = false;
    one.query = q;
    req.queries.push_back(std::move(one));
  }
  Bytes payload = EncodeQueryBatchReq(req);
  StatusOr<Bytes> result = Call(MsgType::kQueryBatch, tenant_id,
                                Slice(payload.data(), payload.size()), call);
  if (!result.ok()) return result.status();
  StatusOr<std::vector<BatchItem>> items =
      ParseBatchItems(Slice(result->data(), result->size()));
  if (!items.ok()) return items.status();
  std::vector<StatusOr<QueryResult>> out;
  out.reserve(items->size());
  for (const BatchItem& item : *items) {
    if (!item.status.ok()) {
      out.emplace_back(item.status);
      continue;
    }
    out.emplace_back(
        DeserializeQueryResult(Slice(item.result.data(), item.result.size())));
  }
  return out;
}

Status ConcealerClient::IngestEpoch(const std::string& tenant_id,
                                    const EncryptedEpoch& epoch,
                                    const CallOptions& call) {
  Bytes payload = SerializeEpoch(epoch);
  return Call(MsgType::kIngestEpoch, tenant_id,
              Slice(payload.data(), payload.size()), call)
      .status();
}

StatusOr<HealthInfo> ConcealerClient::Health(const CallOptions& call) {
  StatusOr<Bytes> result = Call(MsgType::kHealth, "", Slice(), call);
  if (!result.ok()) return result.status();
  return ParseHealthInfo(Slice(result->data(), result->size()));
}

Status ConcealerClient::CreateTenant(const std::string& tenant_id,
                                     const ConcealerConfig& config, Slice sk,
                                     uint32_t qos_weight,
                                     uint32_t qos_max_inflight,
                                     const CallOptions& call) {
  CreateTenantReq req;
  req.config = config;
  req.sk.assign(sk.data(), sk.data() + sk.size());
  req.qos_weight = qos_weight;
  req.qos_max_inflight = qos_max_inflight;
  Bytes payload = EncodeCreateTenantReq(req);
  return Call(MsgType::kCreateTenant, tenant_id,
              Slice(payload.data(), payload.size()), call)
      .status();
}

Status ConcealerClient::LoadRegistry(const std::string& tenant_id,
                                     Slice encrypted_registry,
                                     const CallOptions& call) {
  return Call(MsgType::kLoadRegistry, tenant_id, encrypted_registry, call)
      .status();
}

Status ConcealerClient::SetDynamicMode(const std::string& tenant_id,
                                       bool dynamic, const CallOptions& call) {
  SetDynamicModeReq req;
  req.dynamic = dynamic;
  Bytes payload = EncodeSetDynamicModeReq(req);
  return Call(MsgType::kSetDynamicMode, tenant_id,
              Slice(payload.data(), payload.size()), call)
      .status();
}

StatusOr<QueryResult> ConcealerClient::RetryQuery(
    const std::string& tenant_id, const std::string& token,
    const concealer::Query& query, const RetryOptions& retry,
    const CallOptions& call) {
  return RetryOnUnavailable(
      [&]() -> StatusOr<QueryResult> {
        if (!connected()) {
          Status redialed = Reconnect();
          if (!redialed.ok()) {
            // Keep the loop going: a restarting server refuses dials for
            // a moment, which is exactly the Unavailable contract.
            return Status::Unavailable("reconnect failed: " +
                                       redialed.ToString());
          }
        }
        return Query(tenant_id, token, query, call);
      },
      retry);
}

}  // namespace net
}  // namespace concealer
